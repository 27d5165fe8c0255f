"""Every ``repro`` package's ``__all__`` names real, distinct objects.

A stale export (a name left in ``__all__`` after its definition was
deleted) makes ``from repro.x import *`` fail; this catches it at test
time instead.
"""

import importlib
import pkgutil

import pytest

import repro


def _packages():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            names.append(info.name)
    return sorted(names)


def test_every_subpackage_is_checked():
    assert {"repro.exec", "repro.obs", "repro.rtc"} <= set(_packages())


@pytest.mark.parametrize("name", _packages())
def test_all_resolves_without_duplicates(name):
    package = importlib.import_module(name)
    exported = list(getattr(package, "__all__", ()))
    missing = [entry for entry in exported if not hasattr(package, entry)]
    assert not missing, f"{name}.__all__ lists undefined names: {missing}"
    duplicates = sorted({entry for entry in exported
                         if exported.count(entry) > 1})
    assert not duplicates, f"{name}.__all__ lists twice: {duplicates}"
