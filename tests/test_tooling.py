"""The benchmark's tracer: every engine function it wraps can be found.

``perfbench/tracing.py`` replaces each ``TRACE_POINTS`` target (``module:attr``
or ``module:Class.attr``) with a timing wrapper.  A target renamed or moved
in the engine would stop a traced benchmark run before its first job, and
an engine call that no longer goes through the wrapped name would read 0 in
the per-layer metrics without any error.  The benchmark's pool probe still
passes ``workers=`` to a scan, which must accept it.  The workloads that
``BENCHMARK.json`` declares are the keys of ``WORKLOADS`` in
``perfbench/jobs.py``, read without importing it.  The mutation audit of
``tools/mutants.py`` is tested in its parts that need no subprocess: which
functions it finds, which nodes it counts as sites, the change it makes and
the module text it writes.
"""

from __future__ import annotations

import ast
import collections
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
JOBS = ROOT / "perfbench" / "jobs.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def resolve(target: str):
    module_name, _, rest = target.partition(":")
    owner = importlib.import_module(module_name)
    for attr in rest.split("."):
        owner = getattr(owner, attr)
    return owner


@pytest.mark.parametrize("target, name, how", tracing.TRACE_POINTS, ids=lambda x: str(x))
def test_every_trace_point_resolves(target, name, how):
    assert callable(resolve(target))
    assert callable(getattr(tracing.Tracer, how))


def test_a_tracer_installs_and_removes_every_trace_point():
    originals = [resolve(target) for target, _, _ in tracing.TRACE_POINTS]
    tracer = tracing.Tracer()
    try:
        tracing.install_all(tracer)
        wrapped = [resolve(target) for target, _, _ in tracing.TRACE_POINTS]
        assert all(w is not o for w, o in zip(wrapped, originals))
    finally:
        tracer.uninstall()
    assert [resolve(target) for target, _, _ in tracing.TRACE_POINTS] == originals


@pytest.mark.parametrize(
    "surface, a, b, invariant, tiers_run",
    [
        # Euler separates: the Betti tier does not run
        (("enriques", None), (1, 3), (2, 2), "euler_characteristic", 1),
        # Betti separates at degree 3
        (("abelian", None), (2, 4), (3, 3), "betti", 2),
        # P^2: both tiers tie and the verdict is unknown; decide has no
        # h^{p,0} tier, so its span sees no call
        (("del_pezzo", {"d": 9}), (1, 1), (2,), None, 2),
    ],
)
def test_the_decision_trace_points_see_each_tier_that_runs(surface, a, b, invariant, tiers_run):
    from hilbprod import decision
    from hilbprod.partitions import Partition
    from hilbprod.surfaces import catalog_lookup

    s = catalog_lookup(*surface)
    tracer = tracing.Tracer()
    try:
        for target, name, how in tracing.TRACE_POINTS:
            if target.startswith("hilbprod.decision:"):
                tracer.install(target, name, how)
        verdict = decision.decide(s, Partition(a), Partition(b))
    finally:
        tracer.uninstall()
    assert (verdict.witness.invariant if verdict.witness else None) == invariant
    spans = ("invariants.euler_tuple", "invariants.poincare_tuple", "invariants.hodge_tuple")
    assert [tracer.calls(span) for span in spans] == [
        2 if tier < tiers_run else 0 for tier in range(3)
    ]
    assert tracer.calls("decision.decide") == 1


def test_the_pool_probe_still_runs():
    # scans ignore workers=, but the probe passes it; the scan must accept it
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--probe", "pool2", "--seed", "1"],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["failed"] == 0


def test_the_declared_workloads_are_the_ones_the_benchmark_runs():
    # a workload added in BENCHMARK.json or in perfbench/jobs.py alone would
    # be declared and never run, or run and never compared
    declared = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    (workloads,) = [
        node.value for node in ast.parse(JOBS.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["WORKLOADS"]
    ]
    assert sorted(declared) == sorted(ast.literal_eval(key) for key in workloads.keys)


# -- tools/mutants.py, the mutation audit: its parts that need no subprocess --------

MUTANTS = ROOT / "tools" / "mutants.py"


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants_tool", MUTANTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mutants = load_mutants()

FUNCTIONS_SAMPLE = """
from functools import cache


def plain(x):
    return x


@cache
def cached(x):
    return x


class Holder:
    def method(self, x):
        return x
"""


def test_the_mutation_audit_finds_plain_decorated_and_method_functions(capsys):
    tree = ast.parse(FUNCTIONS_SAMPLE)
    assert [name for name, _ in mutants.functions(tree, [])] == ["plain", "cached", "Holder.method"]
    named = mutants.functions(tree, ["Holder.method", "cached"])
    assert [(name, node.name) for name, node in named] == [
        ("Holder.method", "method"), ("cached", "cached"),
    ]
    with pytest.raises(SystemExit) as excinfo:
        mutants.functions(tree, ["plain", "missing"])
    assert excinfo.value.code == 2
    assert "no function missing" in capsys.readouterr().err


def test_the_mutation_audit_counts_each_site():
    # a comparison chain is one site per operator; a bool constant is no site
    tree = ast.parse("def f(x):\n    return 0 < x <= 3 and x != 7 or True\n")
    kinds = collections.Counter(type(node).__name__ for _, node, _ in mutants.sites(tree, ["f"]))
    assert kinds == {"Compare": 3, "BoolOp": 2, "Constant": 3}
    chain = [i for _, node, i in mutants.sites(tree, ["f"]) if isinstance(node, ast.Compare)]
    assert sorted(chain) == [0, 0, 1]


def test_the_mutation_audit_makes_one_change_per_site():
    source = "def f(x):\n    return x < 3 and x"
    expected = {
        "And -> Or": "return x < 3 or x",
        "Lt -> GtE": "return x >= 3 and x",
        "3 -> 4": "return x < 4 and x",
    }
    found = {}
    for k in range(len(mutants.sites(ast.parse(source), ["f"]))):
        tree = ast.parse(source)
        _, node, i = mutants.sites(tree, ["f"])[k]
        change = mutants.mutate(node, i)
        found[change] = ast.unparse(tree).splitlines()[-1].strip()
    assert found == expected


SPLICE_SAMPLE = """import os  # noqa: F401


@cache
def f(x):
    # a comment inside the audited function goes with its unparse
    return x < 3


class C:
    def g(self):
        return 1
"""


def test_the_mutation_audit_rewrites_only_the_audited_functions():
    tree = ast.parse(SPLICE_SAMPLE)
    (_, node, i), = [site for site in mutants.sites(tree, ["f"]) if isinstance(site[1], ast.Compare)]
    mutants.mutate(node, i)
    assert mutants.spliced(SPLICE_SAMPLE, tree, ["f"]) == (
        "import os  # noqa: F401\n\n\n@cache\ndef f(x):\n    return x >= 3\n\n\n"
        "class C:\n    def g(self):\n        return 1\n"
    )
    # a method keeps its indentation, and an unchanged one its text
    assert mutants.spliced(SPLICE_SAMPLE, ast.parse(SPLICE_SAMPLE), ["C.g"]) == SPLICE_SAMPLE
