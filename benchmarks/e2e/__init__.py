"""End-to-end benchmark with layer attribution (see README.md).

Four workloads — ``compile_cli``, ``exec_bulk``, ``exec_finegrain``,
``service_mix`` — driven from outside through the program's public entry
points.  ``run.py`` is the command ``BENCHMARK.json`` names.
"""
