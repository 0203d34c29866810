"""Kernel caches: compiled artifacts keyed by plan + machine + factors.

The key is ``sha256(plan serialization, Machine.fingerprint(),
tile/unroll factors, codegen version)`` — everything that can change the
generated source or the data layout it indexes.  Two tiers, both plain
:mod:`repro.store` instances:

* :data:`MODULES` (``kernel-memory``) — materialized
  :class:`~repro.codegen.jit.KernelModule` objects under ``(key, jit
  mode)``.  Repeated runs of one plan skip both lowering and
  materialization.
* :func:`source_store` (``kernel-disk``) — one ``<key>.py`` of generated
  source per module under a cache directory, so lowering survives the
  interpreter; a disk hit still materializes in-process.
"""

from __future__ import annotations

import hashlib
import os

from repro.codegen.lower import CODEGEN_VERSION, LoweredPlan, manifest_nests
from repro.store import Codec, DiskStore, MemoryStore, shared_disk_store


def kernel_key(plan, machine, options) -> str:
    """Content hash identifying one plan's generated kernels."""
    from repro.plan import plan_to_json
    h = hashlib.sha256()
    for part in (plan_to_json(plan), "\x00", machine.fingerprint(),
                 "\x00", options.factor_fingerprint(), "\x00",
                 f"codegen-v{CODEGEN_VERSION}"):
        h.update(part.encode())
    return h.hexdigest()


#: Modules are small (a few functions each); bounded like every tier.
MODULES = MemoryStore(64, label="kernel-memory")


def _decode_source(text: str) -> LoweredPlan:
    """A source file back as what :func:`~repro.codegen.lower.lower_plan`
    returned.  Raises — a miss, see :class:`~repro.store.DiskStore` — on
    text that does not compile, does not run or carries no ``MANIFEST``,
    so a damaged file is re-lowered instead of failing the run that
    would materialize it.  (Runs the module rather than parsing it:
    ``ast.parse`` is not thread-safe on CPython 3.11.)"""
    namespace: dict = {}
    exec(compile(text, "<repro-codegen>", "exec"), namespace)
    return LoweredPlan(text, manifest_nests(namespace["MANIFEST"]))


SOURCE_CODEC = Codec(".py", lambda lowered: lowered.source, _decode_source)


def source_store(path: "str | os.PathLike[str]") -> DiskStore:
    """The kernel-source store of one directory."""
    return shared_disk_store(path, SOURCE_CODEC, label="kernel-disk")
