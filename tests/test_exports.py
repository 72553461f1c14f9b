"""Package surfaces: every exported name resolves, and no package attribute
shadows one of its submodules."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    """``__all__`` names resolve, lazily loaded ones included."""
    package = importlib.import_module(name)
    exported = package.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(package, n)] == []


@pytest.mark.parametrize("name", PACKAGES)
def test_submodule_attributes_are_the_submodules(name):
    """``package.x`` for a submodule ``x`` is that module, not a function
    of the same name re-exported over it."""
    package = importlib.import_module(name)
    shadowed = []
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"{name}.{info.name}")
        if getattr(package, info.name, module) is not module:
            shadowed.append(info.name)
    assert shadowed == []
