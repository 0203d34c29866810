"""Materialize generated kernel source into callable functions.

One execution flavor: ``python`` — the generated source runs as plain
Python, the fused/tiled/unroll-and-jammed loops statement for
statement.  Pinned by the frozen ``benchmarks/e2e/compile_cli.py``
(``materialize(source, "python")`` and its two registry series); no
backend calls it.  (Native code is the tape's business:
:mod:`repro.runtime.native` compiles nests with the system ``cc``.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.codegen.lower import LoweredNest, manifest_nests


@dataclass(frozen=True)
class KernelEntry:
    """One nest's callable (or its fallback record) plus call metadata."""

    nest: LoweredNest
    fn: object | None  # None => slab fallback for this nest

    @property
    def arrays(self) -> tuple[str, ...]:
        return self.nest.arrays

    @property
    def scalars(self) -> tuple[str, ...]:
        return self.nest.scalars


@dataclass(frozen=True)
class KernelModule:
    """All kernels of one plan, materialized."""

    entries: tuple[KernelEntry, ...]
    source: str
    jit: str  # "python"


def materialize(source: str, mode: str) -> KernelModule:
    """Exec one generated module and wrap its nest functions.

    ``mode`` is ``"python"`` (the label of the wall-time series).

    When a live metrics registry is installed, records the
    materialization wall time (``repro_jit_materialize_seconds``, by
    mode) and the per-nest native-vs-fallback counts
    (``repro_codegen_nests_total``, fallbacks labeled by reason).
    """
    from time import perf_counter

    from repro.obs import metrics as _metrics

    registry = _metrics.get_registry()
    t0 = perf_counter() if registry.enabled else 0.0
    namespace: dict = {"np": np}
    exec(compile(source, "<repro-codegen>", "exec"), namespace)
    nests = manifest_nests(namespace["MANIFEST"])
    entries = [KernelEntry(nest=nest, fn=namespace.get(nest.fn_name))
               for nest in nests]
    if registry.enabled:
        registry.histogram(
            "repro_jit_materialize_seconds",
            help="Wall-clock seconds materializing one generated "
                 "kernel module (exec of the generated source).",
            deterministic=False,
        ).observe(perf_counter() - t0, mode=mode)
        counts = registry.counter(
            "repro_codegen_nests_total",
            help="Lowered loop nests by status: native kernel vs "
                 "per-nest slab fallback (labeled by reason).")
        for nest in nests:
            if nest.fn_name is not None:
                counts.inc(status="native")
            else:
                counts.inc(status="fallback",
                           reason=nest.fallback_reason or "unknown")
    return KernelModule(entries=tuple(entries), source=source, jit=mode)
