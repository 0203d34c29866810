"""Compile-plan cache: memoized :func:`repro.compiler.compile_hpf`.

Compilation of a stencil kernel is pure — the plan depends only on the
source text, the size bindings, and the :class:`CompilerOptions` — and
experiment drivers recompile the same kernel for every machine shape and
iteration count they sweep.  The plan caches file
:class:`~repro.plan.CompiledProgram` objects under :func:`cache_key`, a
content hash of exactly those inputs (plus an optional machine
fingerprint for callers that specialise plans per machine).  The
mechanism — LRU, atomic bounded directory, tiering, counters — is
:mod:`repro.store`; the classes here add only the key derivation and
the ``program_to_json`` codec.

Cached programs are shared, not copied: a hit returns the same
:class:`CompiledProgram` instance the miss produced.  Plans are treated
as immutable after codegen (executors materialise per-run state on the
:class:`~repro.machine.Machine`, never on the plan), so sharing is safe;
callers that mutate a compiled program must bypass the cache.
"""

from __future__ import annotations

import hashlib
import os

from repro.compiler.options import CompilerOptions
# re-exported: ``repro.compiler.CacheStats`` is a public import path
from repro.obs.metrics import CacheStats  # noqa: F401
from repro.plan.serialize import program_from_json, program_to_json
from repro.store import Codec, DiskStore, MemoryStore, TieredStore


def canonical_bindings(bindings: "dict[str, int] | None") -> dict[str, int]:
    """Normalize size bindings to plain ``int`` values.

    ``np.int64(512)`` and ``512`` denote the same compilation, but their
    ``repr`` differs, so hashing raw values makes equal requests miss.
    Bools and non-integral values are rejected outright rather than
    silently coerced: a float ``512.5`` or ``True`` binding is a caller
    bug, not an alternate spelling of an extent.
    """
    out: dict[str, int] = {}
    for name, value in (bindings or {}).items():
        if isinstance(value, bool):
            raise TypeError(
                f"binding {name}={value!r} is a bool; size bindings must "
                f"be integers")
        if isinstance(value, float) or (
                hasattr(value, "is_integer") and not isinstance(value, int)):
            # Covers python floats and numpy floating scalars alike.
            if not float(value).is_integer():
                raise TypeError(
                    f"binding {name}={value!r} is not an integral value; "
                    f"size bindings must be integers")
            out[name] = int(value)
            continue
        try:
            as_int = int(value)
        except (TypeError, ValueError):
            raise TypeError(
                f"binding {name}={value!r} ({type(value).__name__}) is "
                f"not an integer; size bindings must be integers") from None
        if as_int != value:
            raise TypeError(
                f"binding {name}={value!r} is not an integral value; "
                f"size bindings must be integers")
        out[name] = as_int
    return out


def cache_key(source: str, name: str,
              bindings: "dict[str, int] | None",
              options: CompilerOptions,
              machine_fingerprint: str = "") -> str:
    """Content hash identifying one compilation.

    Bindings are order-insensitive and canonicalized through
    :func:`canonical_bindings`, so ``np.int64(512)`` and ``512`` hash
    identically and non-integral values raise instead of silently
    producing a unique key.  Every :class:`CompilerOptions` field
    participates via :meth:`CompilerOptions.fingerprint`, so toggling any
    knob (level, outputs, unroll_jam, ...) misses rather than aliasing.
    """
    h = hashlib.sha256()
    for part in (source, "\x00", name, "\x00",
                 repr(sorted(canonical_bindings(bindings).items())), "\x00",
                 options.fingerprint(), "\x00", machine_fingerprint):
        h.update(part.encode())
    return h.hexdigest()


#: ``<key>.json`` holding the versioned document of
#: :mod:`repro.plan.serialize`; a schema-version mismatch from an older
#: build fails to decode, i.e. is a miss.
PLAN_CODEC = Codec(".json", program_to_json, program_from_json)


class _PlanKeyed:
    """The key a plan cache files one compilation under.  Plans are
    symbolic over the processor grid, so by default no machine
    fingerprint participates."""

    machine_fingerprint = ""

    def key_for(self, source: str, name: str,
                bindings: "dict[str, int] | None",
                options: CompilerOptions) -> str:
        return cache_key(source, name, bindings, options,
                         self.machine_fingerprint)


class PlanCache(_PlanKeyed, MemoryStore):
    """In-process LRU of compiled programs (``plan-memory``)."""

    def __init__(self, maxsize: int = 128) -> None:
        super().__init__(maxsize, label="plan-memory")


class PersistentPlanCache(_PlanKeyed, DiskStore):
    """On-disk plan cache (``plan-disk``): compiled programs survive the
    interpreter, one :data:`PLAN_CODEC` file per key under ``path``.

    A persistent entry may outlive the machine configuration that
    produced it.  Callers that specialise plans per machine pass the
    :class:`Machine` the plan will run on (or its fingerprint string):
    ``Machine.fingerprint()`` — grid shape, memory capacity, cost-model
    constants — then joins the key, so replaying such a plan on another
    machine misses instead of silently reusing it.  Left empty (the CLI
    and the service), keys equal the in-memory cache's.
    """

    def __init__(self, path: "str | os.PathLike[str]",
                 machine=None, machine_fingerprint: str = "",
                 max_entries: int = 512) -> None:
        super().__init__(path, PLAN_CODEC, max_entries, label="plan-disk")
        if machine is not None:
            machine_fingerprint = machine.fingerprint()
        self.machine_fingerprint = machine_fingerprint


class TieredPlanCache(_PlanKeyed, TieredStore):
    """:class:`PlanCache` in front of a machine-agnostic
    :class:`PersistentPlanCache`: both tiers must derive one key."""

    def __init__(self, memory: PlanCache,
                 disk: "PersistentPlanCache | None" = None) -> None:
        if disk is not None and disk.machine_fingerprint:
            raise ValueError(
                "TieredPlanCache needs a machine-agnostic disk tier "
                "(machine_fingerprint=''), else the tiers derive "
                "different keys for one compilation")
        super().__init__(memory, disk)


#: Process-wide cache used when callers pass ``cache=True``.
DEFAULT_CACHE = PlanCache()
