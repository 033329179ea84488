"""The package's export list matches what the package defines, and its dataclasses document themselves."""
import dataclasses
import importlib
import inspect
import pkgutil

import fogsim


def test_every_exported_name_resolves_once():
    assert len(fogsim.__all__) == len(set(fogsim.__all__))
    missing = [name for name in fogsim.__all__ if not hasattr(fogsim, name)]
    assert missing == []


def test_every_public_name_is_exported():
    public = {name for name, value in vars(fogsim).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert public - set(fogsim.__all__) == set()


def test_every_dataclass_carries_its_own_docstring():
    # Without one, dataclasses builds a docstring from inspect.signature at import.
    built = []
    for info in pkgutil.iter_modules(fogsim.__path__):
        module = importlib.import_module(f"fogsim.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__:
                if cls.__doc__ == cls.__name__ + str(inspect.signature(cls)).replace(" -> None", ""):
                    built.append(cls.__qualname__)
    assert built == []
