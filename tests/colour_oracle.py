"""Test-only oracles for partitions, coloured counts and the two colour scans.

``recursive_partitions`` is the recursive ascending-partition generator the
engine used before its iterative one: the oracle of ``enumerate_partitions``
and ``partitions_by_length``.  ``brute_force_colored`` counts k-coloured
partitions by direct multiset enumeration, with no series expansion: the
independent oracle of ``colored_count``.  ``exhaustive_majorization`` and
``exhaustive_conjecture`` are the pairwise scans: every same-length pair, in
bucket order, compared directly.  They read the coloured counts through ``hilbprod.scanner`` at call
time, so a test that monkeypatches ``scanner.colored_count_tuple`` changes
the engine's scan and its oracle alike, and they compare through
``hilbprod.partitions.majorizes``, not the scanner's global.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

import hilbprod.scanner as scanner
from hilbprod import __version__
from hilbprod.errors import UsageError
from hilbprod.partitions import Majorization, majorizes, partitions_by_length
from hilbprod.scanner import ScanReport, Violation

BRUTE_FORCE_BOUND = 12


def recursive_partitions(n: int, min_part: int = 1) -> Iterator[tuple[int, ...]]:
    """Partitions of n with parts >= min_part, increasing tuples, lexicographic."""
    if n == 0:
        yield ()
        return
    for first in range(min_part, n + 1):
        for rest in recursive_partitions(n - first, first):
            yield (first,) + rest


def recursive_buckets(n: int) -> dict[int, list[tuple[int, ...]]]:
    """The oracle's partitions of n by length, keys in order of first appearance."""
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for parts in recursive_partitions(n):
        buckets.setdefault(len(parts), []).append(parts)
    return buckets


def brute_force_colored(k: int, n: int, *, bound: int = BRUTE_FORCE_BOUND) -> int:
    """Count k-coloured partitions of n by direct multiset enumeration.

    Enumerates multisets of (part, colour) pairs whose parts sum to n, one
    candidate at a time, without any series expansion.  Exponential, hence
    the bound on n.
    """
    if k < 1:
        raise UsageError(f"brute-force oracle needs k >= 1, got {k}")
    if n < 0:
        raise UsageError(f"n must be nonnegative, got {n}")
    if n > bound:
        raise UsageError(
            f"n = {n} exceeds the brute-force bound {bound} (oracle is exponential)"
        )
    if n == 0:
        return 1
    # items in ascending part order so the scan can stop early
    items = [(part, colour) for part in range(1, n + 1) for colour in range(k)]

    def count_from(i: int, remaining: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for j in range(i, len(items)):
            part = items[j][0]
            if part > remaining:
                break
            # item j may repeat, so recurse at j, not j + 1
            total += count_from(j, remaining - part)
        return total

    return count_from(0, n)


def _same_length_pairs(n: int, k_tuple: tuple[int, ...]):
    """Pair count and (a, values_a, b, values_b) for every same-length pair,
    combinations of each lexicographic length bucket, shortest first."""
    buckets = [bucket for _, bucket in sorted(partitions_by_length(n).items())]
    valued = [
        [(p, [scanner.colored_count_tuple(k, p) for k in k_tuple]) for p in bucket]
        for bucket in buckets
    ]
    pairs = sum(len(bucket) * (len(bucket) - 1) // 2 for bucket in buckets)
    stream = [
        (a, values_a, b, values_b)
        for bucket in valued
        for (a, values_a), (b, values_b) in combinations(bucket, 2)
    ]
    return pairs, stream


def _majorization_bucket(n: int, *, k_tuple: tuple[int, ...]):
    pairs, stream = _same_length_pairs(n, k_tuple)
    violations = []
    for a, values_a, b, values_b in stream:
        order = majorizes(b, a)
        if order is Majorization.MAJORIZED_BY:
            a, values_a, b, values_b = b, values_b, a, values_a
        elif order is not Majorization.STRICTLY_MAJORIZES:
            continue
        for k, low, high in zip(k_tuple, values_a, values_b):
            if not high > low:
                violations.append(
                    Violation(
                        "majorization", n, a.parts, b.parts, k,
                        low, high, "strict-majorization-inequality",
                    )
                )
    return pairs, violations


def _conjecture_bucket(n: int, *, k_tuple: tuple[int, ...]):
    pairs, stream = _same_length_pairs(n, k_tuple)
    violations = []
    for a, values_a, b, values_b in stream:
        for k, va, vb in zip(k_tuple, values_a, values_b):
            if va == vb:
                violations.append(
                    Violation("conjecture", n, a.parts, b.parts, k, va, vb, "collision")
                )
    return pairs, violations


def _report(scan_kind: str, bucket, k_set, n_max: int) -> ScanReport:
    k_tuple = tuple(sorted(set(k_set)))
    results = [bucket(n, k_tuple=k_tuple) for n in range(1, n_max + 1)]
    return ScanReport(
        scan_kind=scan_kind,
        parameters=(("k_set", list(k_tuple)), ("n_max", n_max)),
        pairs_checked=sum(pairs for pairs, _ in results),
        violations=tuple(v for _, found in results for v in found),
        wall_time_ms=0,
        engine_version=__version__,
    )


def exhaustive_majorization(k_set, n_max: int) -> ScanReport:
    """``verify_majorization`` by comparing every same-length pair."""
    return _report("majorization", _majorization_bucket, k_set, n_max)


def exhaustive_conjecture(k_set, n_max: int) -> ScanReport:
    """``scan_conjecture`` by comparing every same-length pair."""
    return _report("conjecture", _conjecture_bucket, k_set, n_max)
