"""The library runs on the standard library and its declared dependencies,
and holds only what its own paths run.

An import of an installed but undeclared package (scipy, say) works on the
machine it was written on and fails on a clean install of the package. An op
that only its own tests call is test code; it belongs in ``tests/``.
"""

import ast
import functools
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "dgssm").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


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


@functools.cache
def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def _functions(module: str, private: bool) -> list[ast.FunctionDef]:
    """The module-level defs of ``module`` whose names are private or public."""
    return [node for node in _trees()[module].body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") == private]


def _walk(tree: ast.AST, skip: ast.AST):
    """Every node of ``tree`` outside the ``skip`` subtree."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _is_referenced(module: str, fn: ast.FunctionDef) -> bool:
    """Whether ``src/`` names ``fn`` outside its own def: bare in its module,
    imported from it (``from .module import name``), or as an attribute of
    the module's alias (``from . import module as ad``; ``ad.name``)."""
    for stem, tree in _trees().items():
        nodes = list(_walk(tree, fn))
        aliases = {alias.asname or alias.name for node in nodes
                   if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
                   for alias in node.names if alias.name == module}
        for node in nodes:
            if isinstance(node, ast.Name):
                hit = stem == module and node.id == fn.name
            elif isinstance(node, ast.ImportFrom):
                hit = node.level == 1 and node.module == module and fn.name in {a.name for a in node.names}
            elif isinstance(node, ast.Attribute):
                hit = node.attr == fn.name and isinstance(node.value, ast.Name) and node.value.id in aliases
            else:
                hit = False
            if hit:
                return True
    return False


_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


@functools.cache
def _benchmark_names() -> set[str]:
    """Every name the benchmark's code uses: bare, as an attribute, imported,
    or as the last part of a dotted name in a string, as its tracer names
    the library functions it wraps."""
    names = set()
    for path in BENCHMARK:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
                names.add(node.value.split(".")[-1])
    return names


PUBLIC = [(path.stem, fn.name) for path in SOURCES for fn in _functions(path.stem, private=False)]
PRIVATE = [(path.stem, fn.name) for path in SOURCES for fn in _functions(path.stem, private=True)]


@pytest.mark.parametrize("module, name", PUBLIC, ids=[f"{m}.{n}" for m, n in PUBLIC])
def test_engine_function_has_a_library_caller(module, name):
    fn = next(fn for fn in _functions(module, private=False) if fn.name == name)
    assert _is_referenced(module, fn) or name in _benchmark_names(), (
        f"dgssm.{module}.{name} is called only from outside src/; move it into the tests"
    )


@pytest.mark.parametrize("module, name", PRIVATE, ids=[f"{m}.{n}" for m, n in PRIVATE])
def test_private_function_has_a_library_caller(module, name):
    # A helper left behind when its callers merge is dead code.
    fn = next(fn for fn in _functions(module, private=True) if fn.name == name)
    assert _is_referenced(module, fn), f"dgssm.{module}.{name} is never named in src/; delete it"


def _names_numpy_random(tree: ast.Module) -> bool:
    """Whether a module reaches numpy's random module: ``np.random`` or
    ``numpy.random`` as an attribute, or an import of it or from it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr == "random" and isinstance(node.value, ast.Name) and node.value.id in {"np", "numpy"}:
                return True
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("numpy.random") for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.startswith("numpy.random") or (
                node.module == "numpy" and any(alias.name == "random" for alias in node.names)
            ):
                return True
    return False


NOT_RNG = [path for path in SOURCES if path.name != "rng.py"]


@pytest.mark.parametrize("path", NOT_RNG, ids=[p.name for p in NOT_RNG])
def test_only_the_rng_module_draws_from_numpy(path):
    # Every draw goes through an RngStream, so a run is reproducible from
    # its one seed.
    assert not _names_numpy_random(_trees()[path.stem]), (
        f"{path.name} names numpy.random; draw from a dgssm.rng.RngStream instead"
    )
