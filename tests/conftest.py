"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.machine import Machine

SRC = Path(repro.__file__).parents[1]
#: a ``--cache-dir`` as the commit before :mod:`repro.store` left it: one
#: plan entry and ``kernels/<key>.py``, the since-retired kernel-source tier
PARENT_CACHE = Path(__file__).parent / "fixtures" / "parent_cache"

try:
    from hypothesis import settings as _hyp_settings

    # Deterministic profile for CI: no wall-clock deadlines (shared
    # runners are slow and jittery) and derandomized example generation
    # so the differential fuzz tests replay identically on every run.
    # Selected via HYPOTHESIS_PROFILE=ci (see .github/workflows/ci.yml).
    _hyp_settings.register_profile("ci", deadline=None, derandomize=True)
    if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
        _hyp_settings.load_profile("ci")
except ImportError:  # pragma: no cover - hypothesis is a test dep
    pass


@pytest.fixture(autouse=True)
def system_tmp_under_pytest(tmp_path_factory, monkeypatch):
    """Native kernels (:mod:`repro.runtime.native`) are filed per user
    under the system temp dir.  Point it — for this process and for any
    child it starts — below pytest's base temp, so a test run leaves
    nothing in ``/tmp``; one directory per session, so each distinct
    nest is compiled once."""
    tmp = tmp_path_factory.getbasetemp() / "system-tmp"
    tmp.mkdir(exist_ok=True)
    monkeypatch.setenv("TMPDIR", str(tmp))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp))


@pytest.fixture
def machine2x2() -> Machine:
    return Machine(grid=(2, 2))


@pytest.fixture
def machine1d() -> Machine:
    return Machine(grid=(4,))


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_grid(n: int, seed: int = 0, dtype=np.float32) -> np.ndarray:
    return rng(seed).standard_normal((n, n)).astype(dtype)


def python_child(*argv: str):
    """``python *argv`` with this checkout's ``src`` on the path: must
    exit 0 with nothing on stderr; returns its stdout parsed as JSON."""
    proc = subprocess.run(
        [sys.executable, *argv], text=True, capture_output=True,
        timeout=300, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout)


def retired_kernel_file(cache: Path):
    """Make the one ``kernels/<key>.py`` under ``cache`` (a copy of
    :data:`PARENT_CACHE`) fatal to run, and return a function reading
    the ``(bytes, mtime)`` it must keep: nothing opens that directory
    any more."""
    kernel, = (cache / "kernels").glob("*.py")
    kernel.write_text(kernel.read_text()
                      + "\nraise SystemExit('kernels/ was run')\n")
    return lambda: (kernel.read_bytes(), kernel.stat().st_mtime_ns)
