"""The architecture docs name modules that exist.

Every backticked dotted ``repro.x.y`` name in README.md, DESIGN.md and
EXPERIMENTS.md must be an importable module or resolve, attribute by
attribute, from one — so a module that is renamed or deleted takes its
documentation with it.
"""

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
