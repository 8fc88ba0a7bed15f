"""Test-only oracles for partitions, coloured counts and the two colour scans.

``recursive_partitions`` is the recursive ascending-partition generator the
engine used before its iterative one: the oracle of ``enumerate_partitions``,
``parts_by_length`` and ``partitions_by_length``, and, through
``recursive_buckets``, the enumeration of the colour oracles below, which so
share none with the engine.  ``brute_force_colored`` counts k-coloured
partitions by direct multiset enumeration, with no series expansion: the
independent oracle of ``colored_count``.  ``exhaustive_majorization`` and
``exhaustive_conjecture`` are the pairwise scans: every same-length pair, in
bucket order, compared directly.  ``transfer_fails`` walks every one-unit
transfer (``transfers``) of every partition of n: an n where it finds one
that does not raise a count must be compared pairwise by the majorization
scan, whatever its certificate.

All of them read the per-part counts through ``hilbprod.scanner._part_counts``
at call time and multiply them over the parts themselves, so a test that
monkeypatches that seam changes the engine's scan and its oracles alike.
They compare through ``hilbprod.partitions.majorizes``, not the scanner's
global, on partitions built from their own tuples.
"""

from __future__ import annotations

from itertools import combinations
from math import prod
from typing import Iterator

import hilbprod.scanner as scanner
from hilbprod import __version__
from hilbprod.errors import UsageError
from hilbprod.partitions import Majorization, Partition, majorizes
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


def counter(n: int, k_tuple: tuple[int, ...]):
    """The coloured counts of a partition of n for each k, as a function of
    its parts: products of the scanner's per-part counts, read once."""
    rows = [scanner._part_counts(k, n) for k in k_tuple]
    return lambda parts: [prod(c[part] for part in parts) for c in rows]


def tuple_counts(parts: tuple[int, ...], k_tuple: tuple[int, ...]) -> list[int]:
    """The coloured count of ``parts`` for each k."""
    return counter(sum(parts), k_tuple)(parts)


def transfers(parts: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Each partition one unit transfer away: a unit moved from a part ``y``
    to a part ``x <= y - 2``, kept in increasing order.

    The last ``x`` becomes ``x + 1`` and the first ``y`` becomes ``y - 1``,
    so the tuple stays sorted without a sort.  Every result has the length
    and total of ``parts`` and strictly majorizes it.
    """
    last: dict[int, int] = {}
    first: dict[int, int] = {}
    for i, part in enumerate(parts):
        last[part] = i
        first.setdefault(part, i)
    for x, i in last.items():
        for y, j in first.items():
            if y - x >= 2:
                yield parts[:i] + (x + 1,) + parts[i + 1 : j] + (y - 1,) + parts[j + 1 :]


def transfer_fails(n: int, k_tuple: tuple[int, ...]) -> bool:
    """Whether some count does not rise along some one-unit transfer of a
    partition of n: where the per-partition certificate compared pairwise."""
    count = counter(n, k_tuple)
    for bucket in recursive_buckets(n).values():
        counts = {parts: count(parts) for parts in bucket}
        for parts, low in counts.items():
            for bigger in transfers(parts):
                if not all(high > value for high, value in zip(counts[bigger], low)):
                    return True
    return False


def _same_length_pairs(n: int, k_tuple: tuple[int, ...]):
    """Pair count and (a, values_a, b, values_b) for every same-length pair,
    combinations of each lexicographic length bucket, shortest first."""
    buckets = [bucket for _, bucket in sorted(recursive_buckets(n).items())]
    count = counter(n, k_tuple)
    valued = [[(parts, count(parts)) for parts in bucket] for bucket in buckets]
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
        order = majorizes(Partition(b), Partition(a))
        if order is Majorization.MAJORIZED_BY:
            a, values_a, b, values_b = b, values_b, a, values_a
        elif order is not Majorization.STRICTLY_MAJORIZES:
            continue
        for k, low, high in zip(k_tuple, values_a, values_b):
            if not high > low:
                violations.append(
                    Violation(
                        "majorization", n, a, b, k,
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
                    Violation("conjecture", n, a, b, k, va, vb, "collision")
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
