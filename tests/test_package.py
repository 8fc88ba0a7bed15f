"""The package surface: every module's ``__all__`` names what it defines, every
imported name is used, only ``hilbprod.series`` packs rows of ints into byte
slots, and a short session (import, catalog, one decision, one scan and its
exports, one scan asked for two workers) loads neither the process-pool
machinery nor ``dataclasses``, ``inspect``, ``ast`` or ``dis``, and the
package's version is the one pyproject declares."""

from __future__ import annotations

import ast
import collections
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: no tomllib in the standard library
    tomllib = None

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


@pytest.mark.skipif(tomllib is None, reason="reading pyproject.toml needs tomllib")
def test_the_package_version_is_the_project_version():
    # every scan report stamps __version__ into its fingerprint as engine_version
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == hilbprod.__version__


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


def test_every_imported_name_is_used():
    # no linter runs with the tests: a name imported and never read is an
    # import that a change left stale.  __init__.py only re-exports, and a
    # line marked "# noqa: F401" keeps its name on purpose
    unused, kept = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        lines = path.read_text().splitlines()
        tree = ast.parse("\n".join(lines))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).partition(".")[0]
                if name not in read:
                    marked = "# noqa: F401" in lines[alias.lineno - 1]
                    (kept if marked else unused).append(f"{path.name}:{name}")
    assert unused == []
    assert kept == ["scanner.py:colored_count_tuple"]


def test_every_private_helper_has_a_caller():
    # a module-level private function or class that nothing in the package
    # reads, outside its own definition, is a helper that a change left stale
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    helpers = [
        node for tree in trees for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    ]
    assert len(helpers) >= 50  # the walk finds the package's helpers at all

    def reads(tree: ast.AST) -> collections.Counter:
        return collections.Counter(
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
        )

    everywhere = sum(map(reads, trees), collections.Counter())
    unread = [h.name for h in helpers if everywhere[h.name] == reads(h)[h.name]]
    assert unread == []


def test_only_record_defines_equality_hashing_and_immutability():
    # one implementation of immutable values: every other class that needs
    # them subclasses hilbprod._record.Record
    hand_rolled = {"__eq__", "__hash__", "__setattr__", "__delattr__"}
    found = [
        (path.name, node.name, item.name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name != "Record"
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in hand_rolled
    ]
    assert found == []


# each step of a short session, then the modules of ``unwanted`` (argv[1],
# comma-separated) loaded after it; exports go to the directory argv[2]
STARTUP_PROBE = """
import json, sys
unwanted = sys.argv[1].split(",")
out = sys.argv[2]
loaded = {}
import hilbprod
loaded["import hilbprod"] = [m for m in unwanted if m in sys.modules]
import hilbprod.cli
loaded["import hilbprod.cli"] = [m for m in unwanted if m in sys.modules]
hilbprod.load_catalog()
loaded["builtin catalog"] = [m for m in unwanted if m in sys.modules]
from hilbprod.partitions import Partition
hilbprod.decide(hilbprod.catalog_lookup("abelian"), Partition((1, 3)), Partition((2, 2))).to_dict()
loaded["decide"] = [m for m in unwanted if m in sys.modules]
from hilbprod.scanner import verify_lemma_inequalities
report = verify_lemma_inequalities(8, 2, "same_length")
report.write_csv(out + "/scan.csv")
report.write_records(out + "/scan.jsonl")
report.fingerprint()
loaded["serial scan"] = [m for m in unwanted if m in sys.modules]
verify_lemma_inequalities(8, 2, "same_length", workers=2)
loaded["workers=2 scan"] = [m for m in unwanted if m in sys.modules]
print(json.dumps(loaded))
"""
STARTUP_STEPS = (
    "import hilbprod", "import hilbprod.cli", "builtin catalog", "decide", "serial scan",
    "workers=2 scan",
)


def loaded_after_each_step(unwanted: tuple[str, ...], out: Path) -> dict[str, list[str]]:
    """Run ``STARTUP_PROBE`` in a fresh interpreter without site (-S), which
    would import modules of its own: this one may have imported any of them
    already."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-S", "-c", STARTUP_PROBE, ",".join(unwanted), str(out)],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_no_scan_loads_the_process_pool_stack(tmp_path):
    # the builtin catalog is read as a file next to the package, not through
    # importlib.resources, which loads tempfile, zipfile and more
    unwanted = ("concurrent.futures", "multiprocessing", "importlib.resources", "tempfile")
    assert loaded_after_each_step(unwanted, tmp_path) == dict.fromkeys(STARTUP_STEPS, [])


def test_scan_exports_load_no_csv_module(tmp_path):
    # write_csv writes one f-string per row and quotes its cells itself
    unwanted = ("csv", "_csv")
    assert loaded_after_each_step(unwanted, tmp_path) == dict.fromkeys(STARTUP_STEPS, [])


def test_records_load_no_class_generator_machinery(tmp_path):
    # the value records are plain slotted classes: the standard library's
    # dataclasses module loads inspect, ast and dis, the larger part of start-up
    unwanted = ("dataclasses", "inspect", "ast", "dis")
    assert loaded_after_each_step(unwanted, tmp_path) == dict.fromkeys(STARTUP_STEPS, [])
