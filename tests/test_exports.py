"""Every public export resolves, so a deletion cannot leave a stale name."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import renyibounds

MODULES = ["renyibounds"] + sorted(
    info.name
    for info in pkgutil.walk_packages(renyibounds.__path__, "renyibounds.")
    if not info.name.endswith("__main__")  # importing it runs the CLI
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
