"""Golden plan documents stay in lockstep with codegen.

The real gate runs in CI via ``benchmarks/golden_plans.py --check``;
these tests keep the tool itself honest (mismatch detection, the
schema-bump escape hatch) and verify the checked-in goldens match the
compiler in this tree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks import golden_plans  # noqa: E402

from repro.compiler import OptLevel  # noqa: E402
from repro.kernels import KERNELS  # noqa: E402
from repro.plan import PLAN_SCHEMA_VERSION  # noqa: E402


def test_checked_in_goldens_match_compiler():
    assert golden_plans.check() == 0


def test_manifest_covers_every_named_kernel():
    """Every kernel at the paper's O4, the loop-carrying solvers at the
    default level too, and a file for exactly those documents; a digest
    for every kernel at every level and at O4/O5 with the
    communication/computation overlap."""
    manifest = json.loads(golden_plans.MANIFEST.read_text())
    default = OptLevel.DEFAULT.name
    expected = sorted(
        [f"{name}.O4" for name in KERNELS]
        + [f"{name}.{default}" for name in ("cg", "jacobi", "red_black")])
    assert manifest["documents"] == expected
    assert sorted(manifest["digests"]) == sorted(
        [f"{name}.{level.name}" for name in KERNELS for level in OptLevel]
        + [f"{name}.{level}+overlap" for name in KERNELS
           for level in ("O4", "O5")])
    assert manifest["schema"] == PLAN_SCHEMA_VERSION
    assert sorted(p.stem for p in golden_plans.GOLDEN_DIR.glob("*.json")
                  if p != golden_plans.MANIFEST) == expected


def test_check_fails_on_drifted_golden(tmp_path, monkeypatch):
    # copy the goldens, corrupt one, point the tool at the copy
    import shutil
    fake = tmp_path / "goldens"
    shutil.copytree(golden_plans.GOLDEN_DIR, fake)
    victim = fake / "purdue9.O4.json"
    doc = json.loads(victim.read_text())
    doc["params"]["N"] = 9999
    victim.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    monkeypatch.setattr(golden_plans, "GOLDEN_DIR", fake)
    monkeypatch.setattr(golden_plans, "MANIFEST",
                        fake / "MANIFEST.json")
    assert golden_plans.check() == 1


def test_check_fails_on_drifted_digest(tmp_path, monkeypatch, capsys):
    """A level with no golden document is pinned by its digest."""
    import shutil
    fake = tmp_path / "goldens"
    shutil.copytree(golden_plans.GOLDEN_DIR, fake)
    manifest_path = fake / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["digests"]["purdue9.O1"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest) + "\n")
    monkeypatch.setattr(golden_plans, "GOLDEN_DIR", fake)
    monkeypatch.setattr(golden_plans, "MANIFEST", manifest_path)
    assert golden_plans.check() == 1
    assert "purdue9.O1: compiled plan's sha256 differs" in \
        capsys.readouterr().err


def test_check_demands_regeneration_after_schema_bump(tmp_path,
                                                      monkeypatch,
                                                      capsys):
    import shutil
    fake = tmp_path / "goldens"
    shutil.copytree(golden_plans.GOLDEN_DIR, fake)
    manifest_path = fake / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["schema"] = PLAN_SCHEMA_VERSION - 1  # stale by one bump
    manifest_path.write_text(json.dumps(manifest) + "\n")
    monkeypatch.setattr(golden_plans, "GOLDEN_DIR", fake)
    monkeypatch.setattr(golden_plans, "MANIFEST", manifest_path)
    assert golden_plans.check() == 1
    assert "regenerate with" in capsys.readouterr().err
