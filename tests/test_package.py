"""The package surface: every public name is listed once, by the module that
defines it, the package re-exports those lists in module order, and importing
it loads neither `dataclasses` nor `inspect`."""

import importlib
import inspect
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

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


def test_import_loads_neither_dataclasses_nor_inspect():
    # -I -S: no site packages and no PYTHONPATH, so only the package itself
    # can pull these modules in.
    src = str(Path(partwaves.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import partwaves; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def _defined_objects():
    """Every function, class and method (property getters included) that a
    `partwaves` module defines."""
    for info in pkgutil.iter_modules(partwaves.__path__):
        module = importlib.import_module(f"partwaves.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                yield obj
                for attr in vars(obj).values():
                    attr = getattr(attr, "fget", attr)
                    if inspect.isfunction(attr):
                        yield attr
            elif inspect.isfunction(obj):
                yield obj


def test_every_annotation_resolves():
    # Under `from __future__ import annotations` a name that a module imports
    # only inside a function leaves an annotation no caller can resolve.
    objects = list(_defined_objects())
    assert len(objects) > 100
    unresolved = []
    for obj in objects:
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{obj.__module__}.{obj.__qualname__}: {exc}")
    assert unresolved == []
