"""Job documents: the wire format of the compile-and-run service.

A *job* is one JSON document describing a compilation (``/compile``)
or a compile-and-execute (``/run``).  This module checks the JSON
*shape* — unknown fields, wrong types, the wire-only rules — and builds
the library's own :mod:`repro.job` objects, which validate the values;
either way a malformed client request surfaces as a :class:`JobError`
naming the field (a 400 with a diagnostic), never as a 500 from deep
inside the compiler.  Responses embed the existing versioned documents
unchanged — the plan JSON of :mod:`repro.plan.serialize`, the metrics
document of :mod:`repro.obs.metrics`, the profile document of
:mod:`repro.obs.export` — under a thin ``SERVICE_SCHEMA`` envelope.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import UsageError
from repro.job import CompileJob, MachineSpec, RunJob
from repro.runtime import backends

#: Version stamp of the service's response envelope.  The embedded
#: plan/metrics/profile documents carry their own schema versions.
SERVICE_SCHEMA = {"type": "service", "version": 1}

#: Array payload modes for run responses: per-array sha256 digests
#: (default), full base64 data, or nothing.
ARRAY_MODES = ("digest", "full", "none")


class JobError(ValueError):
    """A malformed job document; maps to HTTP 400."""


@contextmanager
def _job_errors():
    """Re-raise the job's own value errors as :class:`JobError`."""
    try:
        yield
    except UsageError as exc:
        raise JobError(str(exc)) from None


def _require(doc: dict, allowed: dict[str, type]) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise JobError(
            f"unknown field(s) {', '.join(unknown)}; allowed: "
            f"{', '.join(sorted(allowed))}")
    for name, want in allowed.items():
        if name in doc and doc[name] is not None \
                and not isinstance(doc[name], want):
            raise JobError(
                f"field {name!r} must be {want.__name__}, got "
                f"{type(doc[name]).__name__}")


def _int_map(doc: dict, name: str) -> dict[str, int]:
    out = {}
    for key, value in (doc.get(name) or {}).items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise JobError(
                f"{name}[{key!r}] must be an integer, got {value!r}")
        out[str(key)] = value
    return out


def _float_map(doc: dict, name: str) -> dict[str, float]:
    out = {}
    for key, value in (doc.get(name) or {}).items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise JobError(
                f"{name}[{key!r}] must be a number, got {value!r}")
        out[str(key)] = float(value)
    return out


_COMPILE_FIELDS: dict[str, type] = {
    "kernel": str, "source": str, "bindings": dict, "outputs": list,
    "level": str, "include_plan": bool,
}

_RUN_ONLY_FIELDS: dict[str, type] = {
    "scalars": dict, "machine": dict, "backend": str,
    "iterations": int, "seed": int, "workers": int,
    "arrays": str, "profile": bool,
}


def _object(doc: object, allowed: dict[str, type]) -> dict:
    if not isinstance(doc, dict):
        raise JobError(f"job must be a JSON object, got "
                       f"{type(doc).__name__}")
    _require(doc, allowed)
    return doc


def parse_compile_job(doc: object) -> CompileJob:
    return _compile_job(_object(doc, _COMPILE_FIELDS))


def _compile_job(doc: dict) -> CompileJob:
    # an absent level is the compiler's default; a null one is not a level
    if "level" in doc and doc["level"] is None:
        raise JobError("field 'level' must be str, got NoneType")
    with _job_errors():
        return CompileJob.resolve(
            kernel=doc.get("kernel"), source=doc.get("source"),
            bindings=_int_map(doc, "bindings"),
            outputs=doc.get("outputs"), level=doc.get("level"),
            include_plan=bool(doc.get("include_plan", False)))


def parse_run_job(doc: object) -> RunJob:
    doc = _object(doc, {**_COMPILE_FIELDS, **_RUN_ONLY_FIELDS})
    arrays = doc.get("arrays", "digest")
    if arrays not in ARRAY_MODES:
        raise JobError(f"arrays must be one of {ARRAY_MODES}, got "
                       f"{arrays!r}")
    # wire-only rule: the library legitimately runs iterations=0
    iterations = doc.get("iterations", 1)
    if not isinstance(iterations, int) or isinstance(iterations, bool) \
            or iterations < 1:
        raise JobError(f"iterations must be >= 1, got {iterations!r}")
    machine = doc.get("machine") or {}
    _require(machine, {"grid": list, "preset": str, "memory_mb": int})
    with _job_errors():
        return RunJob(
            compile=_compile_job(doc),
            machine=MachineSpec(grid=machine.get("grid") or (2, 2),
                                preset=machine.get("preset", "sp2"),
                                memory_mb=machine.get("memory_mb")),
            backend=doc.get("backend", backends.DEFAULT),
            iterations=iterations,
            seed=doc.get("seed", 0), workers=doc.get("workers"),
            scalars=_float_map(doc, "scalars"), arrays=arrays,
            profile=bool(doc.get("profile", False)))
