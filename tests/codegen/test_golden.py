"""Golden generated-kernel sources.

The exact text the lowerer emits for two representative configurations
is checked in; any codegen change shows up as a reviewable diff here
(and must bump ``CODEGEN_VERSION``, which the ``MANIFEST`` carries).
Regenerate with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/codegen/test_golden.py
"""

import os
from pathlib import Path

import pytest

from repro.codegen import CodegenOptions, lower_plan
from repro.compiler import compile_hpf
from repro.kernels import KERNELS

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: (golden file, kernel, level, options) — one plain config and one with
#: every §3.4 transform (tiling + unroll-and-jam) switched on
CASES = [
    ("five_point.O2.plain.py", "five_point", "O2", CodegenOptions()),
    ("nine_point.O4.tile8.unroll2.py", "nine_point", "O4",
     CodegenOptions(tile=8, unroll=2)),
]


def _generate(kernel: str, level: str, options: CodegenOptions) -> str:
    spec = KERNELS[kernel]
    plan = compile_hpf(spec.source, bindings={"N": 16}, level=level,
                       outputs=set(spec.outputs)).plan
    return lower_plan(plan, options).source


@pytest.mark.parametrize("fname,kernel,level,options", CASES,
                         ids=[c[0] for c in CASES])
def test_golden_source(fname, kernel, level, options):
    generated = _generate(kernel, level, options)
    path = GOLDEN_DIR / fname
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(generated)
        pytest.skip(f"regenerated {fname}")
    assert path.exists(), (
        f"golden {fname} missing; regenerate with "
        f"REPRO_UPDATE_GOLDENS=1")
    assert generated == path.read_text(), (
        f"generated kernel source drifted from {fname}; if the change "
        f"is intended, bump CODEGEN_VERSION and regenerate with "
        f"REPRO_UPDATE_GOLDENS=1")
