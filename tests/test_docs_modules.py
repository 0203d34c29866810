"""The architecture docs name modules that exist.

Every backticked dotted ``repro.x.y`` name in README.md, DESIGN.md and
EXPERIMENTS.md must be an importable module or resolve, attribute by
attribute, from one — so a module that is renamed or deleted takes its
documentation with it.
"""

import functools
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")


def documented_names() -> list[tuple[str, str]]:
    found = set()
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        for name in NAME.findall((ROOT / doc).read_text()):
            found.add((doc, name))
    return sorted(found)


def resolve(dotted: str):
    """Import the longest module prefix, then walk attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


def test_the_docs_name_something():
    assert len(documented_names()) >= 40


@pytest.mark.parametrize("doc,name", documented_names())
def test_documented_name_resolves(doc, name):
    try:
        resolve(name)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"{doc} names `{name}`, which does not exist: {exc}")


# -- the docs name flags that exist -----------------------------------------

FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
#: Flags the docs quote from other tools' command lines.
OTHER_TOOLS = {
    "--check": "benchmarks/golden_plans.py",
    "--workload": "benchmarks/e2e/run.py",
    "--seconds": "benchmarks/e2e/run.py",
}


@functools.lru_cache(maxsize=None)
def cli_flags() -> frozenset[str]:
    """Every ``--flag`` of every ``python -m repro`` subcommand."""
    import argparse

    from repro.__main__ import build_parser
    subcommands, = (a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    return frozenset(
        flag for sub in subcommands.choices.values()
        for action in sub._actions for flag in action.option_strings)


def documented_flags() -> list[tuple[str, str]]:
    return sorted({(doc, flag)
                   for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md")
                   for flag in FLAG.findall((ROOT / doc).read_text())
                   if flag not in OTHER_TOOLS})


@pytest.mark.parametrize("doc,flag", documented_flags())
def test_documented_flag_exists(doc, flag):
    assert flag in cli_flags(), \
        f"{doc} mentions `{flag}`, which `python -m repro` does not have"
