"""Golden plan documents: freeze every named kernel's compiled plan.

Each named kernel is compiled at O4 — the top of the paper's ladder —
(N=8) and serialized with :mod:`repro.plan.serialize`; the JSON
documents live under ``benchmarks/goldens/`` as
``<kernel>.<level>.json`` next to a manifest recording the
``PLAN_SCHEMA_VERSION`` they were written at.  Kernels whose plan
carries a ``DO`` loop are frozen at the default level too: that is
where the levels can differ (hoisted preheader exchanges, ping-pong
buffer swaps); a straight-line kernel's default plan is its O4 plan.
Every kernel's plan at every level ``O0``..``O5`` is pinned as well, by
the sha256 of its JSON in the manifest's ``digests`` (a digest, not a
document: the levels below O4 and the straight-line O5 plans are
frozen without a file each).  The communication/computation overlap
rewrite is pinned the same way, by the digests of every kernel at O4
and O5 with ``overlap_comm=True`` (``<kernel>.O4+overlap``,
``<kernel>.O5+overlap``).

``--check`` (the CI mode) recompiles every kernel and fails if any
plan's JSON differs from its golden or its digest **while the schema
version is unchanged** — an unannounced change to codegen output or the
serialization format.  Bumping ``PLAN_SCHEMA_VERSION`` is the explicit
declare-your-intent step: the check then tells you to regenerate with
``--update`` instead of failing.

Usage::

    python benchmarks/golden_plans.py --check
    python benchmarks/golden_plans.py --update
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "goldens"
MANIFEST = GOLDEN_DIR / "MANIFEST.json"
LEVEL = "O4"
N = 8


def golden_path(document: str) -> Path:
    return GOLDEN_DIR / f"{document}.json"


def current_documents() -> dict[str, str]:
    """``{"<kernel>.<level>": plan JSON}``."""
    from repro.compiler import OptLevel
    from repro.kernels import KERNELS, compile_kernel
    from repro.plan import SeqLoopOp, plan_to_json

    default = OptLevel.DEFAULT.name
    docs = {}
    for name in sorted(KERNELS):
        plan = compile_kernel(name, bindings={"N": N}, level=LEVEL).plan
        docs[f"{name}.{LEVEL}"] = plan_to_json(plan)
        if plan.count_ops(SeqLoopOp):
            docs[f"{name}.{default}"] = plan_to_json(compile_kernel(
                name, bindings={"N": N}, level=default).plan)
    return docs


def current_digests() -> dict[str, str]:
    """``{"<kernel>.<level>": sha256 of the plan JSON}`` at every
    level, plus ``"<kernel>.<level>+overlap"`` at O4 and O5 with
    ``overlap_comm=True``."""
    from repro.compiler import OptLevel
    from repro.kernels import KERNELS, compile_kernel
    from repro.plan import plan_to_json

    def digest(name: str, level: str, **options) -> str:
        plan = compile_kernel(name, bindings={"N": N}, level=level,
                              **options).plan
        return hashlib.sha256(plan_to_json(plan).encode()).hexdigest()

    digests = {f"{name}.{level.name}": digest(name, level.name)
               for name in sorted(KERNELS) for level in OptLevel}
    digests.update({f"{name}.{level}+overlap":
                    digest(name, level, overlap_comm=True)
                    for name in sorted(KERNELS) for level in ("O4", "O5")})
    return digests


def update() -> int:
    from repro.plan import PLAN_SCHEMA_VERSION

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    docs = current_documents()
    for name, doc in docs.items():
        golden_path(name).write_text(doc)
    MANIFEST.write_text(json.dumps(
        {"schema": PLAN_SCHEMA_VERSION, "n": N,
         "documents": sorted(docs), "digests": current_digests()},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(docs)} golden plans to {GOLDEN_DIR} "
          f"(schema v{PLAN_SCHEMA_VERSION})")
    return 0


def check() -> int:
    from repro.plan import PLAN_SCHEMA_VERSION

    if not MANIFEST.exists():
        print(f"no golden manifest at {MANIFEST}; run with --update",
              file=sys.stderr)
        return 1
    manifest = json.loads(MANIFEST.read_text())
    if manifest["schema"] != PLAN_SCHEMA_VERSION:
        print(f"PLAN_SCHEMA_VERSION bumped "
              f"({manifest['schema']} -> {PLAN_SCHEMA_VERSION}): "
              f"goldens are stale by declaration; regenerate with "
              f"--update", file=sys.stderr)
        return 1
    docs = current_documents()
    failed = []
    for name, doc in docs.items():
        path = golden_path(name)
        if not path.exists():
            failed.append(f"{name}: no golden at {path}")
            continue
        if path.read_text() != doc:
            failed.append(
                f"{name}: compiled plan differs from {path.name}")
    digests = current_digests()
    for name, digest in sorted(manifest.get("digests", {}).items()):
        if digests.get(name, digest) != digest:
            failed.append(f"{name}: compiled plan's sha256 differs from "
                          f"the manifest's digest")
    missing = (set(manifest["documents"]) - set(docs)) | \
        (set(manifest.get("digests", ())) - set(digests))
    for name in sorted(missing):
        failed.append(f"{name}: no longer compiled (kernel gone from "
                      f"the registry, or its plan lost its loop)")
    if failed:
        for msg in failed:
            print(f"golden mismatch: {msg}", file=sys.stderr)
        print(
            f"\n{len(failed)} golden plan(s) changed without a "
            f"PLAN_SCHEMA_VERSION bump.  If the change is intentional, "
            f"bump PLAN_SCHEMA_VERSION in src/repro/plan/serialize.py "
            f"and regenerate with:\n"
            f"    python benchmarks/golden_plans.py --update",
            file=sys.stderr)
        return 1
    print(f"{len(docs)} golden plans and {len(digests)} digests match "
          f"(schema "
          f"v{PLAN_SCHEMA_VERSION})")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="fail if any kernel's plan drifted from its "
                           "golden without a schema bump")
    mode.add_argument("--update", action="store_true",
                      help="regenerate every golden plan document")
    args = ap.parse_args(argv)
    return update() if args.update else check()


if __name__ == "__main__":
    sys.exit(main())
