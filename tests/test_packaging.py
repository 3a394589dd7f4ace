"""The library runs on the standard library and its declared dependencies.

An import of an installed but undeclared package (scipy, say) works on the
machine it was written on and fails on a clean install of the package.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dgssm").glob("*.py"))


def _declared() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = (re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"])
    return {name.lower().replace("-", "_") for name in names}


def _imported(path: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_are_stdlib_or_declared(path):
    allowed = set(sys.stdlib_module_names) | _declared() | {"dgssm"}
    assert _imported(path) <= allowed, f"{path.name} imports {sorted(_imported(path) - allowed)}"
