"""Every name a module imports is used in that module.

A standard-library stand-in for a linter's unused-import rule: each module of
the package, of the tests and of the benchmark is parsed with ``ast`` (the
files are only read), and a name bound by an import must occur elsewhere in
the module as a name, as the base of an attribute, or inside a string
annotation.  ``__init__.py`` files are skipped: their imports are re-exports.
A package module also imports from each module in one ``from X import``
statement; the tests repeat some on purpose, so that rule holds in ``src/`` only.
A test or benchmark file takes a function or class from the module that
defines it, or from the package root, not through a module that only imports it.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jacobiweil"
# package modules by bare name, tests and benchmark files by path from the root
MODULES = {p.name if p.parent == PACKAGE else str(p.relative_to(ROOT)): p
           for pattern in ("src/jacobiweil/*.py", "tests/*.py", "perfbench/**/*.py")
           for p in ROOT.glob(pattern) if p.name != "__init__.py"}


def _imported(tree) -> dict[str, int]:
    """Each name an import binds, with its line; ``__future__`` imports bind none."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(tree) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "SymplecticElement"
            try:
                used |= _used(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_unused_imports(module):
    tree = ast.parse(MODULES[module].read_text(), filename=module)
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{module}: imported but never used: {unused}"


def test_finds_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(sep)\n")
    assert set(_imported(tree)) - _used(tree) == {"math", "path"}


def _repeated_from_imports(tree) -> dict[str, list[int]]:
    """Each module named by more than one ``from X import`` statement, with their lines."""
    lines = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            lines.setdefault("." * node.level + (node.module or ""), []).append(node.lineno)
    return {module: sorted(at) for module, at in lines.items() if len(at) > 1}


@pytest.mark.parametrize("module", sorted(m for m, p in MODULES.items() if p.parent == PACKAGE))
def test_one_from_import_per_module(module):
    tree = ast.parse(MODULES[module].read_text(), filename=module)
    repeated = _repeated_from_imports(tree)
    assert not repeated, f"{module}: more than one 'from X import' of {repeated}"


def test_finds_a_repeated_from_import():
    tree = ast.parse("from .a import x\nfrom os import sep\nfrom .a import y\nfrom a import z\n")
    assert _repeated_from_imports(tree) == {".a": [1, 3]}


def _reimported(tree) -> list[tuple[str, str, int]]:
    """Each function or class that a ``from jacobiweil.<mod> import`` takes from a
    module that does not define it, as (module, name, line)."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.level == 0
                and (node.module or "").startswith("jacobiweil.")):
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(module, alias.name, None)
                if ((inspect.isfunction(obj) or inspect.isclass(obj))
                        and obj.__module__ != node.module):
                    found.append((node.module, alias.name, node.lineno))
    return found


@pytest.mark.parametrize("module", sorted(m for m, p in MODULES.items() if p.parent != PACKAGE))
def test_names_come_from_their_defining_module(module):
    tree = ast.parse(MODULES[module].read_text(), filename=module)
    found = _reimported(tree)
    assert not found, f"{module}: imports a name through a module that does not define it: {found}"


def test_finds_a_reimported_name():
    tree = ast.parse("from jacobiweil.suites import covariance_residual, rand_word\n"
                     "from jacobiweil import covariance_residual\n"
                     "from jacobiweil.weil import SW_SCALE, covariance_residual\n")
    assert _reimported(tree) == [("jacobiweil.suites", "covariance_residual", 1)]
