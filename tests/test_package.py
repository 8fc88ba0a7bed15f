"""The package surface: every module's ``__all__`` names what it defines."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import hilbprod

MODULES = sorted(info.name for info in pkgutil.iter_modules(hilbprod.__path__))


def test_the_modules_that_export_names():
    exporting = [m for m in MODULES if hasattr(importlib.import_module(f"hilbprod.{m}"), "__all__")]
    assert exporting == [
        "decision", "errors", "invariants", "partitions", "scanner", "series", "surfaces",
    ]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists_and_star_imports(name):
    module = importlib.import_module(f"hilbprod.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, missing
    namespace: dict = {}
    exec(f"from hilbprod.{name} import *", namespace)
    assert set(exported) <= set(namespace)
