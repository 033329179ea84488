"""The package's export list matches what the package defines."""
import inspect

import fogsim


def test_every_exported_name_resolves_once():
    assert len(fogsim.__all__) == len(set(fogsim.__all__))
    missing = [name for name in fogsim.__all__ if not hasattr(fogsim, name)]
    assert missing == []


def test_every_public_name_is_exported():
    public = {name for name, value in vars(fogsim).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert public - set(fogsim.__all__) == set()
