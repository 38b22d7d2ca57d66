"""The package's public names are exactly its library modules' ``__all__``."""

import importlib
import inspect
import pkgutil

import tdcodes

# the modules tdcodes/__init__.py star-imports; cli is the front end
LIBRARY = ("words", "roots", "confusability", "oracle", "codes", "bounds", "optimal")


def test_library_is_every_module_but_the_cli():
    assert {m.name for m in pkgutil.iter_modules(tdcodes.__path__)} == {*LIBRARY, "cli"}


def test_package_exports_each_module_all_once():
    owner = {}
    for name in LIBRARY:
        module = importlib.import_module(f"tdcodes.{name}")
        for attr in module.__all__:
            assert attr not in owner, (attr, owner.get(attr), name)
            owner[attr] = name
            assert getattr(tdcodes, attr) is getattr(module, attr), (name, attr)
    public = {
        attr
        for attr, value in vars(tdcodes).items()
        if not attr.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(owner)
