"""The package surface: every module's ``__all__`` names what it defines, and
only ``hilbprod.series`` packs rows of ints into byte slots."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

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


PACKAGE = Path(hilbprod.__file__).parent
SLOT_CODEC = re.compile(r"to_bytes|from_bytes|memoryview|byteorder")


@pytest.mark.parametrize(
    "source",
    sorted(str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*.py") if p.name != "series.py")
)
def test_only_series_knows_the_slot_format(source):
    # the kernel and the Kuenneth product share one codec, _pack and _unpack
    # in series.py; bytes handled anywhere else would be a second format
    assert not SLOT_CODEC.findall((PACKAGE / source).read_text())
