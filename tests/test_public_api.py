"""Release-quality guards: public API surface integrity.

Every package must export exactly what its ``__all__`` promises, the
README quickstart must run verbatim, and version metadata must be
consistent.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.baselines",
    "repro.pram",
    "repro.extmem",
    "repro.mapreduce",
    "repro.bsp",
    "repro.data",
    "repro.util",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    assert hasattr(mod, "__all__"), f"{name} lacks __all__"
    for sym in mod.__all__:
        assert hasattr(mod, sym), f"{name}.{sym} in __all__ but missing"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_symbols_documented(name):
    mod = importlib.import_module(name)
    assert (mod.__doc__ or "").strip(), f"{name} lacks a module docstring"
    for sym in mod.__all__:
        obj = getattr(mod, sym)
        if callable(obj) or isinstance(obj, type):
            assert (getattr(obj, "__doc__", None) or "").strip(), (
                f"{name}.{sym} lacks a docstring"
            )


def test_version_consistent():
    import repro

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    text = pyproject.read_text()
    m = re.search(r'^version = "([^"]+)"', text, re.M)
    assert m and m.group(1) == repro.__version__


def test_readme_quickstart_runs():
    import numpy as np

    from repro import exact_sum

    x = np.array([1e16, 1.0, -1e16])
    assert float(np.sum(x)) != 1.0
    assert exact_sum(x) == 1.0


ROOT = Path(__file__).resolve().parents[1]
DOCS = ["README.md", "DESIGN.md"] + sorted(
    str(p.relative_to(ROOT)) for p in (ROOT / "docs").glob("*.md")
)


def _resolves(dotted):
    """Import the longest module prefix of ``dotted``; the rest must be attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_doc_code_mentions_exist(doc):
    """Every ``repro.<dotted>`` name and backticked ``*.py`` in a doc exists."""
    text = (ROOT / doc).read_text()
    missing = sorted(
        {name for name in re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", text)
         if not _resolves(name)}
    )
    assert not missing, f"{doc} names missing code: {missing}"
    sources = [p.name for p in ROOT.glob("*.py")] + [
        str(p.relative_to(ROOT))
        for top in ("src", "tests", "benchmarks", "examples")
        for p in (ROOT / top).rglob("*.py")
    ]
    scripts = {
        name
        for span in re.findall(r"```.*?```|`[^`\n]+`", text, re.S)
        for name in re.findall(r"[\w./-]*\w\.py\b", span)
    }
    missing = sorted(
        name for name in scripts
        if not any(src == name or src.endswith("/" + name) for src in sources)
    )
    assert not missing, f"{doc} names missing files: {missing}"


def test_examples_referenced_in_readme_exist():
    readme = (ROOT / "README.md").read_text()
    for script in re.findall(r"`([a-z_]+\.py)`", readme):
        assert (ROOT / "examples" / script).exists(), script
