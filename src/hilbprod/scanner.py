"""Exhaustive desk-scale scans over partition pairs, with reproducible reports.

Three scan families:

* ``verify_lemma_inequalities`` checks the strict binomial-product
  inequalities between partitions of different lengths (resp. of the same
  length, oriented at the first differing part), together with their
  intermediate product forms, for every qualifying pair up to ``n_max`` and
  every shift ``1 <= p <= p_max``.  Rational comparisons are done in exact
  cross-multiplied integer form, never floating point.  A violation is a
  first-class finding, not an engine error; these inequalities genuinely
  fail once unit parts accumulate (earliest witnesses: (3,4) vs (1,1,5) at
  p=5 for the cross-ratio form, both sides 72/25; (2,3,3) vs (1,1,1,5) at
  p=1 for the unit-shift form, both products 48; (2,2,4) vs (1,1,1,5) at
  p=4 for the binomial form, both 15750; same-length (1,4,5) vs (2,2,6) at
  p=4 for the cross-ratio form, (1,5,5) vs (2,2,7) at p=1 for the unit-shift
  form, both 72, and (1,4,6) vs (2,2,7) at p=5 for the binomial form, both
  349272).
* ``verify_majorization`` asserts that k-coloured partition counts respect
  strict majorization (k >= 3) on every comparable same-length pair.
* ``scan_conjecture`` records every collision of coloured-count tuples on
  distinct same-length pairs.  It reports and never asserts: a collision
  would be a finding, not a test failure.

Reports are deterministic for fixed parameters and engine version: each scan
runs one bucket function per n through ``_scan``, which merges the buckets in
order of n, and the worker count never affects the output (``wall_time_ms``
is the one volatile field and is excluded from the fingerprint).  Within one
n, pairs come straight from the length buckets of ``partitions_by_length``,
each partition carrying the values computed for it once: different-length
pairs shorter first, same-length pairs as combinations of one bucket, whose
ascending lexicographic order already puts the partition that is smaller at
the first differing part first.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations, product
from math import comb
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sized

from ._version import __version__
from .errors import UsageError
from .partitions import (
    Majorization,
    Partition,
    colored_count_tuple,
    majorizes,
    partitions_by_length,
)

__all__ = [
    "Violation",
    "ScanReport",
    "verify_lemma_inequalities",
    "verify_majorization",
    "scan_conjecture",
    "CSV_COLUMNS",
]


class Violation(NamedTuple):
    """One failed comparison; the field order is the CSV column order."""

    scan_kind: str
    n: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    k_or_p: int
    value_a: int
    value_b: int
    form: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "scan_kind": self.scan_kind,
            "n": self.n,
            "a": list(self.a),
            "b": list(self.b),
            "k_or_p": self.k_or_p,
            "value_a": self.value_a,
            "value_b": self.value_b,
            "form": self.form,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Violation":
        return cls(
            d["scan_kind"],
            d["n"],
            tuple(d["a"]),
            tuple(d["b"]),
            d["k_or_p"],
            d["value_a"],
            d["value_b"],
            d.get("form", ""),
        )


CSV_COLUMNS = Violation._fields


def _csv_row(v: Violation) -> tuple[Any, ...]:
    """The violation as a CSV row: the parts tuples joined by commas."""
    return v[:2] + (",".join(map(str, v.a)), ",".join(map(str, v.b))) + v[4:]


@dataclass(frozen=True)
class ScanReport:
    scan_kind: str
    parameters: tuple[tuple[str, Any], ...]
    pairs_checked: int
    violations: tuple[Violation, ...]
    wall_time_ms: int
    engine_version: str

    def parameter(self, name: str) -> Any:
        return dict(self.parameters)[name]

    def to_dict(self) -> dict[str, Any]:
        return {
            "scan_kind": self.scan_kind,
            "parameters": dict(self.parameters),
            "pairs_checked": self.pairs_checked,
            "violations": [v.to_dict() for v in self.violations],
            "wall_time_ms": self.wall_time_ms,
            "engine_version": self.engine_version,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ScanReport":
        return cls(
            scan_kind=d["scan_kind"],
            parameters=tuple(sorted(d["parameters"].items())),
            pairs_checked=d["pairs_checked"],
            violations=tuple(Violation.from_dict(v) for v in d["violations"]),
            wall_time_ms=d["wall_time_ms"],
            engine_version=d["engine_version"],
        )

    def fingerprint(self) -> str:
        """Canonical JSON of everything except the volatile wall time."""
        content = self.to_dict()
        del content["wall_time_ms"]
        return json.dumps(content, sort_keys=True)

    def to_records(self) -> list[dict[str, Any]]:
        """Record-set form: one header record, then one record per violation."""
        header = {
            "scan_kind": self.scan_kind,
            "parameters": dict(self.parameters),
            "pairs_checked": self.pairs_checked,
            "wall_time_ms": self.wall_time_ms,
            "engine_version": self.engine_version,
            "record": "header",
        }
        records = [header]
        for v in self.violations:
            record = v.to_dict()
            record["record"] = "violation"
            records.append(record)
        return records

    @classmethod
    def from_records(cls, records: list[Mapping[str, Any]]) -> "ScanReport":
        if not records or records[0].get("record") != "header":
            raise ValueError("record set must start with a header record")
        violations = [r for r in records[1:] if r.get("record") == "violation"]
        return cls.from_dict({**records[0], "violations": violations})

    def write_records(self, path: str | Path) -> None:
        """JSON Lines: the header record, then one line per violation."""
        with open(path, "w") as handle:
            for record in self.to_records():
                handle.write(json.dumps(record, sort_keys=True) + "\n")

    def csv_rows(self) -> list[dict[str, Any]]:
        return [dict(zip(CSV_COLUMNS, _csv_row(v))) for v in self.violations]

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(map(_csv_row, self.violations))


# -- buckets: one function of n per scan ------------------------------------
#
# Each bucket takes one shape: one call of ``_valued_pairs``, then one loop
# over the pairs it returns.


def _valued_pairs(
    n: int, values: Callable[[Partition], Any], mode: str
) -> tuple[int, Iterator[tuple[tuple[Partition, Any], tuple[Partition, Any]]]]:
    """The pair count and the pairs of one n, each side as (partition, values).

    ``values`` runs once per partition of n; the count comes from the bucket
    sizes, before any pair is made.

    ``diff_length``: (shorter, longer) across length buckets.
    ``same_length``: distinct pairs within one bucket; a bucket is in
    ascending lexicographic order, so the first of each pair is the one that
    is smaller at the first differing part.
    """
    buckets = [
        [(p, values(p)) for p in bucket]
        for _, bucket in sorted(partitions_by_length(n).items())
    ]
    if mode == "same_length":
        count = sum(comb(len(bucket), 2) for bucket in buckets)
        return count, chain.from_iterable(combinations(bucket, 2) for bucket in buckets)
    across = list(combinations(buckets, 2))
    count = sum(len(shorter) * len(longer) for shorter, longer in across)
    return count, chain.from_iterable(product(*two) for two in across)


def _shift_products(partition: Partition, p_max: int) -> tuple[list[int], list[int]]:
    """Per shift p: (prod of (part+p), prod of C(part+p, p)), 1-indexed by p."""
    shift = [0] * (p_max + 1)
    binom = [0] * (p_max + 1)
    for p in range(1, p_max + 1):
        sh = 1
        bi = 1
        for part in partition.parts:
            sh *= part + p
            bi *= comb(part + p, p)
        shift[p] = sh
        binom[p] = bi
    return shift, binom


def _colored_counts(partition: Partition, k_tuple: tuple[int, ...]) -> list[int]:
    return [colored_count_tuple(k, partition) for k in k_tuple]


def _lemma_bucket(n: int, *, p_max: int, mode: str) -> tuple[int, list[Violation]]:
    scan_kind = f"lemma_{mode}"
    pairs, stream = _valued_pairs(n, partial(_shift_products, p_max=p_max), mode)
    violations: list[Violation] = []
    for (a, (shift_a, binom_a)), (b, (shift_b, binom_b)) in stream:
        r, s_len = a.length, b.length
        # plain product of (part + 1): the p = 1 base form
        if not shift_a[1] < shift_b[1]:
            violations.append(
                Violation(
                    scan_kind, n, a.parts, b.parts, 1,
                    shift_a[1], shift_b[1], "unit-shift-product",
                )
            )
        for p in range(1, p_max + 1):
            # prod (part+p)/p compared exactly: cross-multiply by p^length
            lhs = shift_a[p] * p**s_len
            rhs = shift_b[p] * p**r
            if not lhs < rhs:
                violations.append(
                    Violation(
                        scan_kind, n, a.parts, b.parts, p,
                        lhs, rhs, "shift-ratio-cross-multiplied",
                    )
                )
            if not binom_a[p] < binom_b[p]:
                violations.append(
                    Violation(
                        scan_kind, n, a.parts, b.parts, p,
                        binom_a[p], binom_b[p], "binomial-product",
                    )
                )
    return pairs, violations


def _majorization_bucket(n: int, *, k_tuple: tuple[int, ...]) -> tuple[int, list[Violation]]:
    values = partial(_colored_counts, k_tuple=k_tuple)
    pairs, stream = _valued_pairs(n, values, "same_length")
    violations: list[Violation] = []
    for (a, values_a), (b, values_b) in stream:
        order = majorizes(b, a)
        if order is Majorization.MAJORIZED_BY:
            a, values_a, b, values_b = b, values_b, a, values_a
        elif order is not Majorization.STRICTLY_MAJORIZES:
            continue
        # now b strictly majorizes a
        for k, low, high in zip(k_tuple, values_a, values_b):
            if not high > low:
                violations.append(
                    Violation(
                        "majorization", n, a.parts, b.parts, k,
                        low, high, "strict-majorization-inequality",
                    )
                )
    return pairs, violations


def _conjecture_bucket(n: int, *, k_tuple: tuple[int, ...]) -> tuple[int, list[Violation]]:
    values = partial(_colored_counts, k_tuple=k_tuple)
    pairs, stream = _valued_pairs(n, values, "same_length")
    violations: list[Violation] = []
    for (a, values_a), (b, values_b) in stream:
        for k, va, vb in zip(k_tuple, values_a, values_b):
            if va == vb:
                violations.append(
                    Violation(
                        "conjecture", n, a.parts, b.parts, k,
                        va, vb, "collision",
                    )
                )
    return pairs, violations


# -- the driver ------------------------------------------------------------


def _clamp_workers(request: int, tasks: Sized) -> int:
    """Worker processes worth starting: never more than tasks or CPUs."""
    return min(request, len(tasks), os.cpu_count() or 1)


def _k_tuple(k_set: Iterable[int]) -> tuple[int, ...]:
    k_tuple = tuple(sorted(set(k_set)))
    if not k_tuple:
        raise UsageError("k_set must be nonempty")
    return k_tuple


def _scan(
    scan_kind: str,
    parameters: tuple[tuple[str, Any], ...],
    bucket: Callable[[int], tuple[int, list[Violation]]],
    n_max: int,
    workers: int,
) -> ScanReport:
    """Run ``bucket`` on every n in 1..n_max and merge the buckets in order of n.

    ``executor.map`` keeps that order, so the report is byte-identical for
    any worker count; ``bucket`` must pickle (a ``partial`` of a module-level
    function does).
    """
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    start = time.perf_counter()
    ns = range(1, n_max + 1)
    workers = _clamp_workers(workers, ns)
    if workers <= 1:
        results = list(map(bucket, ns))
    else:
        with ProcessPoolExecutor(max_workers=workers) as executor:
            results = list(executor.map(bucket, ns))
    return ScanReport(
        scan_kind=scan_kind,
        parameters=parameters,
        pairs_checked=sum(pairs for pairs, _ in results),
        violations=tuple(v for _, found in results for v in found),
        wall_time_ms=int((time.perf_counter() - start) * 1000),
        engine_version=__version__,
    )


# -- public scans ----------------------------------------------------------


def verify_lemma_inequalities(
    n_max: int,
    p_max: int,
    mode: str,
    *,
    workers: int = 1,
) -> ScanReport:
    """Scan the strict product inequalities over every qualifying pair.

    ``mode`` is ``"diff_length"`` (pairs of different lengths, shorter side
    expected strictly smaller) or ``"same_length"`` (distinct same-length
    pairs oriented at the first differing part).  Three forms are checked
    per pair: the unit-shift product ``prod(part + 1)``, the shifted ratio
    ``prod((part + p)/p)`` in cross-multiplied integer form, and the
    binomial product ``prod C(part + p, p)``.  Every failed strict
    comparison is recorded as a violation; the report is the evidence
    either way.
    """
    if mode not in ("diff_length", "same_length"):
        raise UsageError(f"mode must be diff_length or same_length, got {mode!r}")
    if n_max < 4:
        raise UsageError(f"n_max must be >= 4, got {n_max}")
    if p_max < 1:
        raise UsageError(f"p_max must be >= 1, got {p_max}")
    return _scan(
        f"lemma_{mode}",
        (("n_max", n_max), ("p_max", p_max)),
        partial(_lemma_bucket, p_max=p_max, mode=mode),
        n_max,
        workers,
    )


def verify_majorization(
    k_set: Iterable[int],
    n_max: int,
    *,
    workers: int = 1,
) -> ScanReport:
    """Assert coloured counts respect strict majorization for every k in k_set.

    Every distinct same-length pair is examined (that is what
    ``pairs_checked`` counts); the inequality is asserted on the strictly
    comparable ones.
    """
    k_tuple = _k_tuple(k_set)
    if min(k_tuple) < 3:
        raise UsageError(
            f"majorization monotonicity needs k >= 3, got {min(k_tuple)}"
        )
    if n_max < 1:
        raise UsageError(f"n_max must be >= 1, got {n_max}")
    return _scan(
        "majorization",
        (("k_set", list(k_tuple)), ("n_max", n_max)),
        partial(_majorization_bucket, k_tuple=k_tuple),
        n_max,
        workers,
    )


def scan_conjecture(
    k_set: Iterable[int],
    n_max: int,
    *,
    workers: int = 1,
) -> ScanReport:
    """Record coloured-count collisions on distinct same-length pairs.

    Purely exploratory: any k (including 1, 2, 3) is accepted and collisions
    are reported as findings with full witnesses, never raised.
    """
    k_tuple = _k_tuple(k_set)
    if n_max < 1:
        raise UsageError(f"n_max must be >= 1, got {n_max}")
    return _scan(
        "conjecture",
        (("k_set", list(k_tuple)), ("n_max", n_max)),
        partial(_conjecture_bucket, k_tuple=k_tuple),
        n_max,
        workers,
    )
