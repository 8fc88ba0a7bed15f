"""Span tracing from outside the engine.

The tracer replaces public functions in the module that looks them up (for
example ``hilbprod.decision.poincare_polynomial_tuple``) with wrappers that
time each call, and puts the originals back on ``uninstall``.  Spans are
aggregated in memory per name as (calls, total seconds, seconds covered by
child spans), so that a scan with millions of calls keeps a fixed footprint;
self time is total minus child time.
"""

from __future__ import annotations

import importlib
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _record(self, name: str, elapsed: float, child: float) -> None:
        stack = self._stack
        if stack:
            stack[-1] += elapsed
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += child

    def wrap(self, name: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._record(name, elapsed, stack.pop())

        return traced

    def wrap_first_per_key(self, name: str, fn):
        """Span only the first call for each value of the first argument."""
        seen: set = set()
        traced = self.wrap(name, fn)

        def first(key, *args, **kwargs):
            if key in seen:
                return fn(key, *args, **kwargs)
            seen.add(key)
            return traced(key, *args, **kwargs)

        return first

    def wrap_majorizes(self, name: str, fn):
        """Span every call and count the strictly comparable outcomes."""
        traced = self.wrap(name, fn)
        counts = self.counts

        def majorizes(b, a):
            order = traced(b, a)
            if order.value in ("strictly_majorizes", "majorized_by"):
                counts["comparable"] = counts.get("comparable", 0) + 1
            return order

        return majorizes

    def install(self, target: str, name: str, how: str = "wrap") -> None:
        """Replace ``module.attr`` (or ``module.Class.attr``) by a traced wrapper."""
        module_name, _, rest = target.partition(":")
        owner = importlib.import_module(module_name)
        *path, attr = rest.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, getattr(self, how)(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        entry = self.stats.get(name, [0, 0.0, 0.0])
        return entry[1] - entry[2]

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, [0, 0.0, 0.0])[0])


# (module:attribute where the caller looks it up, span name, wrapper kind)
TRACE_POINTS = (
    ("hilbprod.invariants:poincare_series", "series.poincare", "wrap"),
    ("hilbprod.invariants:hodge_p0_series", "series.hodge_p0", "wrap"),
    ("hilbprod.invariants:hodge_polynomial_full", "series.hodge_full", "wrap"),
    ("hilbprod.partitions:colored_count", "series.colored_table", "wrap_first_per_key"),
    ("hilbprod.decision:decide", "decision.decide", "wrap"),
    ("hilbprod.decision:poincare_polynomial_tuple", "invariants.poincare_tuple", "wrap"),
    ("hilbprod.decision:hodge_p0_tuple_vector", "invariants.hodge_tuple", "wrap"),
    ("hilbprod.decision:euler_char_tuple", "invariants.euler_tuple", "wrap"),
    ("hilbprod.partitions:enumerate_partitions", "partitions.enumerate", "wrap"),
    ("hilbprod.scanner:colored_count_tuple", "partitions.colored_tuple", "wrap"),
    ("hilbprod.scanner:majorizes", "partitions.majorizes", "wrap_majorizes"),
    ("hilbprod.scanner:verify_lemma_inequalities", "scanner.compare", "wrap"),
    ("hilbprod.scanner:verify_majorization", "scanner.compare", "wrap"),
    ("hilbprod.scanner:scan_conjecture", "scanner.compare", "wrap"),
    ("hilbprod.scanner:ScanReport.write_csv", "scanner.export", "wrap"),
    ("hilbprod.scanner:ScanReport.write_records", "scanner.export", "wrap"),
    ("hilbprod.scanner:ScanReport.fingerprint", "scanner.export", "wrap"),
)


def install_all(tracer: Tracer) -> None:
    for target, name, how in TRACE_POINTS:
        tracer.install(target, name, how)
