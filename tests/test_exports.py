import importlib

import pytest

MODULES = ("totients", "vpv", "analytic", "series", "exactcore", "audit")


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    # a stale __all__ entry breaks only `from ... import *`
    mod = importlib.import_module(f"vpvtotients.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, missing
