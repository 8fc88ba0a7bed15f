"""The benchmark's tracer: every engine function it wraps can be found.

``perfbench/tracing.py`` replaces each ``TRACE_POINTS`` target (``module:attr``
or ``module:Class.attr``) with a timing wrapper.  A target renamed or moved
in the engine would stop a traced benchmark run before its first job.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
