import ast
import importlib
import inspect
from pathlib import Path

import pytest

from vpvtotients.audit import registry

MODULES = ("totients", "vpv", "analytic", "series", "exactcore", "audit")


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    # a stale __all__ entry breaks only `from ... import *`
    mod = importlib.import_module(f"vpvtotients.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing


def test_no_module_imports_a_private_name():
    # every module calls its siblings only by public names: the registry
    # holds the display data (brackets, weights, printed and corrected
    # forms), and the integer check is errors' public one; only the kernels
    # module is imported whole, as `from . import _kernels`
    package = Path(registry.__file__).parents[1]
    private = sorted(
        f"{path.relative_to(package)}: {node.module or ''}.{alias.name}"
        for path in package.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
        if (node.module, alias.name) != (None, "_kernels")
    )
    assert not private, private


@pytest.mark.parametrize("module", ("totients", "vpv", "analytic", "series", "exactcore"))
def test_no_reading_options(module):
    # printed and corrected readings are audit-registry data; no library
    # function picks one by an option
    mod = importlib.import_module(f"vpvtotients.{module}")
    options = [
        f"{name}({param})"
        for name in mod.__all__
        if callable(getattr(mod, name))
        for param in inspect.signature(getattr(mod, name)).parameters
        if param in ("reading", "which", "as_printed")
    ]
    assert not options, options


def _imports_from(importer, module):
    mod = importlib.import_module(f"vpvtotients.{importer}")
    tree = ast.parse(Path(mod.__file__).read_text())
    return [
        ast.unparse(node)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        if module in [*(getattr(node, "module", None) or "").split("."),
                      *(alias.name.split(".")[-1] for alias in node.names)]
    ]


def test_only_kernels_name_the_cell_cap():
    # the grid cap is one constant, compared in the kernels that build the
    # grids; every other module asks `_kernels` to check a shape
    package = Path(registry.__file__).parents[1]
    named = sorted(
        f"{path.relative_to(package)}: {name}"
        for path in package.rglob("*.py")
        if path.name != "_kernels.py"
        for node in ast.walk(ast.parse(path.read_text()))
        for name in (getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None))
        if name in ("MAX_CELLS", "DEFAULT_SELECTOR_CAP", "_check_cap", "_check_size")
    )
    assert not named, named


def test_vpv_imports_nothing_from_series():
    # vpv holds lattice enumeration and regrouping; the exact z-series
    # product displays are registry data
    imports = _imports_from("vpv", "series")
    assert not imports, imports


def test_vpv_imports_nothing_from_exactcore():
    # the oracle bracket (a full-grid power sum) and the printed
    # T-coefficients (Bernoulli numbers) are registry data
    imports = _imports_from("vpv", "exactcore")
    assert not imports, imports


def test_series_imports_nothing_from_exactcore():
    # series is only the power-series algebra; the Stirling expansions of
    # eq-4.14 and eq-4.15 are registry data
    imports = _imports_from("series", "exactcore")
    assert not imports, imports


def test_kernels_import_nothing_from_exactcore():
    # the selector masks find their own primes: the closed form jordan
    # factorizes by exactcore.factorize, so selector_count == jordan would
    # not catch a factorization bug that both sides shared
    imports = _imports_from("_kernels", "exactcore")
    assert not imports, imports


def test_exactcore_imports_no_numpy():
    # the exact primitives stay pure Python, so that a `compute` built on
    # them alone need not load numpy; the numpy Moebius table is _kernels'
    imports = _imports_from("exactcore", "numpy")
    assert not imports, imports


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _module_all(tree):
    """The names listed in a module's literal __all__, empty when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _references(tree):
    """(name, owner) for every Name, Attribute and imported name in a module,
    owner being the top-level function or class it sits in (None outside)."""
    refs = set()
    for top in tree.body:
        owner = top.name if isinstance(top, _DEFS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                refs.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                refs.add((node.attr, owner))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                refs.update((alias.name.split(".")[-1], owner) for alias in node.names)
    return refs


def test_unexported_definitions_have_a_caller():
    # a top-level function or class that its module does not export must be
    # referenced somewhere in the package other than in its own body;
    # otherwise it is dead code, or library code kept only for tests
    src = Path(registry.__file__).resolve().parents[1]
    trees = {path: ast.parse(path.read_text()) for path in sorted(src.rglob("*.py"))}
    refs = set().union(*map(_references, trees.values()))
    unreferenced = [
        f"{path.relative_to(src)}:{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, _DEFS) and node.name not in _module_all(tree)
        if not any(ref == node.name and owner != node.name for ref, owner in refs)
    ]
    assert not unreferenced, unreferenced
