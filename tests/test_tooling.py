"""The benchmark's tracer: every engine function it wraps can be found.

``perfbench/tracing.py`` replaces each ``TRACE_POINTS`` target (``module:attr``
or ``module:Class.attr``) with a timing wrapper.  A target renamed or moved
in the engine would stop a traced benchmark run before its first job, and
an engine call that no longer goes through the wrapped name would read 0 in
the per-layer metrics without any error.  The benchmark's pool probe still
passes ``workers=`` to a scan, which must accept it.  The workloads that
``BENCHMARK.json`` declares are the keys of ``WORKLOADS`` in
``perfbench/jobs.py``, read without importing it.
"""

from __future__ import annotations

import ast
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
        # Euler separates: neither later tier runs
        (("enriques", None), (1, 3), (2, 2), "euler_characteristic", 1),
        # Betti separates at degree 3: the h^{p,0} tier does not run
        (("abelian", None), (2, 4), (3, 3), "betti", 2),
        # P^2: every tier ties, so all three run and the verdict is unknown
        (("del_pezzo", {"d": 9}), (1, 1), (2,), None, 3),
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
