"""Every name a package lists in ``__all__`` resolves, so a deleted class
cannot stay behind as a broken export."""

import importlib

import pytest


@pytest.mark.parametrize("package", ["prism", "prism.simulator"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert len(set(module.__all__)) == len(module.__all__)
