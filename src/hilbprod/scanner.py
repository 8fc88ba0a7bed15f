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
  strict majorization (k >= 3) on every comparable same-length pair.  A
  partition counts ``prod c_k(part)`` with every ``c_k(m) >= 1``, so moving
  a unit from a part y to a part x <= y - 2 raises the count exactly when
  ``c_k(x+1) c_k(y-1) > c_k(x) c_k(y)``.  These one-unit transfers generate
  strict majorization, so the inequalities with ``1 <= x`` and ``x + y <=
  n`` certify n; only an n where one fails is compared pair by pair.
* ``scan_conjecture`` records every collision of coloured-count tuples on
  distinct same-length pairs.  It groups each length bucket into classes
  of equal (k, value) and emits the pairs inside each class.  It reports
  and never asserts: a collision would be a finding, not a test failure.

Reports are deterministic for fixed parameters and engine version: each scan
runs one bucket function per n through ``_scan``, which merges the buckets in
order of n, and the worker count never affects the output (``wall_time_ms``
is the one volatile field and is excluded from the fingerprint).  Within one
n, pairs come from the length buckets of ``partitions_by_length``, each
partition carrying the values computed for it once: different-length pairs
shorter first, same-length pairs as combinations of one bucket, whose
ascending lexicographic order already puts the partition that is smaller at
the first differing part first.  The colour scans list their violations in
that same pair order, k ascending within a pair, though they do not loop
over the pairs, and multiply the per-part counts ``_part_counts(k, n)``
over each partition's parts tuple.

A ``ScanReport`` refuses, when it is built, violations whose numbers are not
plain ints, so its three exports (``fingerprint``, ``write_records`` and
``write_csv``) write without checking again.
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
from math import comb, prod
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sized

from ._version import __version__
from .errors import UsageError, require_plain_ints
from .partitions import (
    Majorization,
    Partition,
    colored_count_tuple,  # noqa: F401  kept importable here: perfbench traces it
    majorizes,
    partitions_by_length,
)
from .series import euler_rows

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
        """The violation of ``d``, unchecked: the report that holds it checks
        its numbers."""
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


def _plain_ints(values: Iterable[Any]) -> bool:
    """Whether every value is an int and none a bool or other subclass."""
    return {*map(type, values)} <= {int}


def _refuse_non_ints(v: Violation) -> None:
    """Raise ValueError naming the first field of ``v`` whose numbers are not
    plain ints; a bool is refused although it is an int."""
    for name in ("n", "k_or_p", "value_a", "value_b"):
        value = getattr(v, name)
        if type(value) is not int:
            raise ValueError(f"violation field {name} must be a plain int, got {value!r}")
    for name in ("a", "b"):
        parts = getattr(v, name)
        if not _plain_ints(parts):
            raise ValueError(f"violation field {name} must hold plain ints, got {parts!r}")


def _json_parts(parts: tuple[int, ...]) -> str:
    """``json.dumps(list(parts))`` for plain ints: ``[3, 4]``."""
    return "[" + ", ".join(map(str, parts)) + "]"


def _csv_parts(parts: tuple[int, ...]) -> str:
    """The CSV cell of a parts tuple: ``3,4``."""
    return ",".join(map(str, parts))


def _memoized(render: Callable[[Any], str]) -> Callable[[Any], str]:
    """``render``, remembered under the ``id`` of its argument.

    An export call makes one per kind of text: a scan has a few hundred
    distinct partitions behind tens of thousands of violations, which share
    their parts tuples, kinds and forms.  The memo lives no longer than the
    call and the report keeps every object alive until then, so no id is
    reused.
    """
    memo: dict[int, str] = {}

    def text(obj: Any) -> str:
        found = memo.get(id(obj))
        if found is None:
            found = memo[id(obj)] = render(obj)
        return found

    return text


# One violation as ``json.dumps(record, sort_keys=True)`` writes it, keys in
# sorted order; the fingerprint form is the same without the record marker.
_RECORD_JSON = (
    '{"a": %s, "b": %s, "form": %s, "k_or_p": %d, "n": %d, '
    '"record": "violation", "scan_kind": %s, "value_a": %d, "value_b": %d}'
)
_VIOLATION_JSON = _RECORD_JSON.replace('"record": "violation", ', "")


@dataclass(frozen=True)
class ScanReport:
    """The findings of one scan.

    Construction refuses (ValueError) a ``pairs_checked``, a
    ``wall_time_ms`` or a violation number that is not a plain int, so every
    report can be exported: the exports write the violations' numbers with
    ``%d`` and ``str``, which would truncate a float and print a bool as 1
    where ``json.dumps`` prints ``true``, and the header's counts with
    ``json.dumps``, which would print ``true`` or ``1.5`` as a count.
    """

    scan_kind: str
    parameters: tuple[tuple[str, Any], ...]
    pairs_checked: int
    violations: tuple[Violation, ...]
    wall_time_ms: int
    engine_version: str

    def __post_init__(self) -> None:
        self._check_ints()

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
        """Canonical JSON of everything except the volatile wall time.

        ``json.dumps(content, sort_keys=True)`` with ``violations`` written
        through ``_VIOLATION_JSON``: that key sorts last, so the header's
        text ends in its empty list.
        """
        head = json.dumps(
            {
                "scan_kind": self.scan_kind,
                "parameters": dict(self.parameters),
                "pairs_checked": self.pairs_checked,
                "engine_version": self.engine_version,
                "violations": [],
            },
            sort_keys=True,
        )
        return head[:-2] + ", ".join(self._json_texts(_VIOLATION_JSON)) + "]}"

    def _header(self) -> dict[str, Any]:
        return {
            "scan_kind": self.scan_kind,
            "parameters": dict(self.parameters),
            "pairs_checked": self.pairs_checked,
            "wall_time_ms": self.wall_time_ms,
            "engine_version": self.engine_version,
            "record": "header",
        }

    @classmethod
    def from_records(cls, records: list[Mapping[str, Any]]) -> "ScanReport":
        if not records or records[0].get("record") != "header":
            raise ValueError("record set must start with a header record")
        violations = [r for r in records[1:] if r.get("record") == "violation"]
        return cls.from_dict({**records[0], "violations": violations})

    def write_records(self, path: str | Path) -> None:
        """JSON Lines: the header record, then one record per violation.

        Each line is the bytes of ``json.dumps(record, sort_keys=True)`` over
        the record's dict, written with no dict built per violation;
        ``from_records`` reads the records back.
        """
        with open(path, "w") as handle:
            handle.write(json.dumps(self._header(), sort_keys=True) + "\n")
            handle.writelines(self._json_texts(_RECORD_JSON + "\n"))

    def write_csv(self, path: str | Path) -> None:
        """``csv.writer`` over the violations in ``CSV_COLUMNS`` order, each
        parts tuple joined by commas once."""
        parts = _memoized(_csv_parts)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(
                (kind, n, parts(a), parts(b), k, value_a, value_b, form)
                for kind, n, a, b, k, value_a, value_b, form in self.violations
            )

    def _check_ints(self) -> None:
        """Raise ValueError unless ``pairs_checked``, ``wall_time_ms`` and
        every violation's numbers are plain ints.

        One pass over the columns, each parts tuple object once; only a
        report that fails goes row by row, to name the field.
        """
        for name in ("pairs_checked", "wall_time_ms"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"report field {name} must be a plain int, got {value!r}")
        if not self.violations:
            return
        _, ns, a, b, ks, values_a, values_b, _ = zip(*self.violations)
        parts = a + b
        distinct = dict(zip(map(id, parts), parts)).values()
        if not _plain_ints(chain(ns, ks, values_a, values_b, chain.from_iterable(distinct))):
            for v in self.violations:
                _refuse_non_ints(v)

    def _json_texts(self, template: str) -> Iterator[str]:
        """Each violation through ``template``, in its sorted key order."""
        parts = _memoized(_json_parts)
        quoted = _memoized(json.JSONEncoder(sort_keys=True).encode)
        for kind, n, a, b, k, value_a, value_b, form in self.violations:
            yield template % (
                parts(a), parts(b), quoted(form), k, n, quoted(kind), value_a, value_b
            )


# -- buckets: one function of n per scan ------------------------------------
#
# A lemma bucket, and a majorization bucket whose certificate fails, make one
# call of ``_valued_pairs``, then one loop over the pairs it returns.  The
# colour buckets otherwise work per partition and count pairs in closed form.


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


def _lemma_bucket(n: int, *, p_max: int, mode: str) -> tuple[int, list[Violation]]:
    scan_kind = f"lemma_{mode}"
    pairs, stream = _valued_pairs(n, partial(_shift_products, p_max=p_max), mode)
    # powers[length][p] = p**length, for the cross-multiplied shift ratio
    powers = [[p**length for p in range(p_max + 1)] for length in range(n + 1)]
    shifts = range(1, p_max + 1)
    violations: list[Violation] = []
    found = violations.append
    for (a, (shift_a, binom_a)), (b, (shift_b, binom_b)) in stream:
        a_parts, b_parts = a.parts, b.parts
        powers_a, powers_b = powers[len(a_parts)], powers[len(b_parts)]
        # plain product of (part + 1): the p = 1 base form
        if not shift_a[1] < shift_b[1]:
            found(
                Violation(
                    scan_kind, n, a_parts, b_parts, 1,
                    shift_a[1], shift_b[1], "unit-shift-product",
                )
            )
        for p in shifts:
            # prod (part+p)/p compared exactly: cross-multiply by p^length
            lhs = shift_a[p] * powers_b[p]
            rhs = shift_b[p] * powers_a[p]
            if not lhs < rhs:
                found(
                    Violation(
                        scan_kind, n, a_parts, b_parts, p,
                        lhs, rhs, "shift-ratio-cross-multiplied",
                    )
                )
            if not binom_a[p] < binom_b[p]:
                found(
                    Violation(
                        scan_kind, n, a_parts, b_parts, p,
                        binom_a[p], binom_b[p], "binomial-product",
                    )
                )
    return pairs, violations


def _part_counts(k: int, n: int) -> list[int]:
    """``c_k(0..n)`` from the Euler rows: a partition counts ``prod c_k(part)``."""
    return [row[0] for row in euler_rows(k, n)[: n + 1]]


def _majorization_bucket(n: int, *, k_tuple: tuple[int, ...]) -> tuple[int, list[Violation]]:
    """Certify n by its per-part count ratios; list violations pairwise only
    if one fails.

    A one-unit transfer from a part y to a part x <= y - 2 multiplies the
    count by ``c(x+1) c(y-1) / (c(x) c(y))``, whatever the other parts, and
    some partition of n holds such x and y exactly when ``1 <= x`` and ``x
    + y <= n``.  The transitive closure of the transfers within a length
    bucket is strict majorization (Muirhead; Hardy, Littlewood and Polya),
    and ``>`` is transitive, so counts that rise along every transfer rise
    along every strictly comparable pair.  The pairwise loop is the one path
    that lists violations, in pair order, so a failing n goes through it
    whole.
    """
    buckets = partitions_by_length(n).values()
    for k in k_tuple:
        c = _part_counts(k, n)
        for x in range(1, n // 2):
            up, low = c[x + 1], c[x]
            for y in range(x + 2, n - x + 1):
                if not up * c[y - 1] > low * c[y]:
                    return _majorization_pairs(n, k_tuple)
    return sum(comb(len(bucket), 2) for bucket in buckets), []


def _majorization_pairs(n: int, k_tuple: tuple[int, ...]) -> tuple[int, list[Violation]]:
    rows = [_part_counts(k, n) for k in k_tuple]
    pairs, stream = _valued_pairs(
        n, lambda p: [prod(map(c.__getitem__, p.parts)) for c in rows], "same_length"
    )
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
    """Collisions as the pairs inside each (length, k, value) class.

    Sorted by (length, i, j, k), with i < j positions in the lexicographic
    length bucket: the order of a loop over the bucket's combinations.
    """
    rows = [(k, _part_counts(k, n)) for k in k_tuple]
    pairs = 0
    violations: list[Violation] = []
    for _, bucket in sorted(partitions_by_length(n).items()):
        parts = [p.parts for p in bucket]
        pairs += comb(len(parts), 2)
        collisions = []
        for k, c in rows:
            values = [prod(map(c.__getitem__, q)) for q in parts]
            if len(set(values)) < len(values):
                classes: dict[int, list[int]] = {}
                for i, value in enumerate(values):
                    classes.setdefault(value, []).append(i)
                collisions += [
                    (i, j, k, value)
                    for value, members in classes.items()
                    for i, j in combinations(members, 2)
                ]
        violations += [
            Violation("conjecture", n, parts[i], parts[j], k, value, value, "collision")
            for i, j, k, value in sorted(collisions)
        ]
    return pairs, violations


# -- the driver ------------------------------------------------------------


def _clamp_workers(request: int, tasks: Sized) -> int:
    """Worker processes worth starting: never more than tasks or CPUs."""
    return min(request, len(tasks), os.cpu_count() or 1)


def _k_tuple(k_set: Iterable[int]) -> tuple[int, ...]:
    ks = set(k_set)
    if not ks:
        raise UsageError("k_set must be nonempty")
    if not _plain_ints(ks):
        raise UsageError(f"k_set must hold plain ints, got {ks!r}")
    return tuple(sorted(ks))


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
    require_plain_ints(n_max=n_max, p_max=p_max, workers=workers)
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

    The inequality is asserted on every strictly comparable same-length
    pair, and ``pairs_checked`` counts the distinct same-length pairs.  Each
    n is certified by ``c_k(x+1) c_k(y-1) > c_k(x) c_k(y)`` for ``1 <= x <=
    y - 2``, ``x + y <= n``: every one-unit transfer raises the count.  An n
    where one fails is compared pair by pair, so its violations are listed
    exactly as a pairwise scan lists them.
    """
    require_plain_ints(n_max=n_max, workers=workers)
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
    require_plain_ints(n_max=n_max, workers=workers)
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
