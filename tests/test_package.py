"""The package surface: every public name is listed once, by the module that
defines it, and the package re-exports those lists in module order."""

import inspect

import partwaves
from partwaves import dary, exact, partitions, quasipoly, reconstruct, waves

MODULES = (exact, partitions, quasipoly, waves, dary, reconstruct)


def test_each_public_name_is_listed_by_the_module_that_defines_it():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    for module in MODULES:
        for name in module.__all__:
            obj = inspect.unwrap(getattr(module, name))
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name


def test_package_reexports_every_module_list():
    assert partwaves.__all__ == ["__version__"] + [
        name for module in MODULES for name in module.__all__
    ]
    for module in MODULES:
        for name in module.__all__:
            assert getattr(partwaves, name) is getattr(module, name), name
