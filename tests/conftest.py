"""Helpers shared by the test modules."""

from __future__ import annotations

import sys
import threading
from typing import Callable

import hilbprod.series as series
from hilbprod.errors import DataError
from hilbprod.surfaces import SurfaceInvariants


def fresh_tables(monkeypatch) -> list[dict]:
    """Empty table registries, so that every table grows from row 0 again."""
    registries = []
    for name in ("_BETTI_TABLES", "_EULER_TABLES", "_HODGE_P0_TABLES", "_HODGE_TABLES"):
        registries.append({})
        monkeypatch.setattr(series, name, registries[-1])
    return registries


def synthetic(b0: int, b1: int, b2: int, **kwargs) -> SurfaceInvariants:
    """The surface with Betti numbers (b0, b1, b2) and chi by Poincare duality."""
    chi = 2 * b0 - 2 * b1 + b2
    return SurfaceInvariants(f"synthetic({b0},{b1},{b2})", b0, b1, b2, chi, **kwargs)


def valid_only(grid) -> list[SurfaceInvariants]:
    """``synthetic(*args)`` for each ``args`` tuple of ``grid`` that constructs;
    a tuple given as (b0, b1, b2, h10, h20) also sets the Hodge numbers."""
    surfaces = []
    for b0, b1, b2, *hodge in grid:
        try:
            surfaces.append(synthetic(b0, b1, b2, **dict(zip(("h10", "h20"), hodge))))
        except DataError:
            pass
    return surfaces


def race(work: Callable[[int], None], workers: int = 4) -> None:
    """Run ``work(i)`` for i < workers on threads released together.

    Four workers are more than the cores of a small machine, and a short
    switch interval makes them interleave often.  A thread that raises fails
    the test, and so does one still alive after a minute: the threads are
    daemons, so a deadlock fails the test instead of hanging the run.
    """
    barrier = threading.Barrier(workers)
    failures: list[Exception] = []

    def run(i: int) -> None:
        try:
            barrier.wait(timeout=30)
            work(i)
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads), "threads deadlocked"
    assert not failures, failures
