import ast
import importlib
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


def test_registry_imports_no_private_name():
    # the registry holds the display data (brackets, weights, printed and
    # corrected forms) and calls the library modules only by public names
    tree = ast.parse(Path(registry.__file__).read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, private
