import importlib

import pytest


@pytest.mark.parametrize("module", ["zacn", "zacn.geometry", "zacn.tensor", "zacn.ops", "zacn.io",
                                    "zacn.harness"])
def test_every_export_resolves(module):
    # a deleted public name must not leave a stale entry behind
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
