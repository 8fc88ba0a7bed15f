"""Partitions, majorization, coloured counts and their brute-force oracle."""

from __future__ import annotations

import collections
import itertools
import re
from functools import lru_cache

import pytest

from hilbprod import partitions
from hilbprod.decision import decide
from hilbprod.errors import UsageError
from hilbprod.partitions import (
    Majorization,
    Partition,
    colored_count,
    colored_count_tuple,
    enumerate_partitions,
    majorizes,
    parts_by_length,
    partitions_by_length,
)
from hilbprod.surfaces import catalog_lookup
from colour_oracle import brute_force_colored, recursive_buckets, recursive_partitions


@lru_cache(maxsize=None)
def partition_count(n: int, largest: int) -> int:
    """Independent recursive counter: partitions of n with parts <= largest."""
    if n == 0:
        return 1
    return sum(partition_count(n - part, part) for part in range(1, min(n, largest) + 1))


# -- Partition type ---------------------------------------------------------------


def test_partition_rejects_bad_parts():
    with pytest.raises(ValueError):
        Partition((0, 1))
    with pytest.raises(ValueError):
        Partition((2, 1))


def test_partition_refuses_bool_parts():
    # True == 1, but a partition of plain ints would render (1,2), not (True,2)
    for parts in ((True, 2), (1, True), (False, 2)):
        with pytest.raises(ValueError, match="positive integers"):
            Partition(parts)
    assert Partition((1, 2)).render() == "1,2"


def test_a_partition_text_is_rendered_once_per_parts_tuple():
    # a two-digit part: a join without separators would give (1210)
    partitions._partition_text.cache_clear()
    first = str(Partition((1, 2, 10)))
    assert first == "(1,2,10)"
    assert Partition((1, 2, 10)).render() == "1,2,10"
    for _ in range(2):
        again = str(Partition((1, 2, 10)))
        assert again == "(1,2,10)" and again is first
    assert str(Partition((3,))) == "(3)"
    info = partitions._partition_text.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)


@pytest.mark.parametrize(
    "parts, message",
    [
        ((), "a partition needs at least one part"),
        ((True, 2), "parts must be positive integers, got (True, 2)"),
        ((1.0, 2), "parts must be positive integers, got (1.0, 2)"),
        (("1",), "parts must be positive integers, got ('1',)"),
        ((0, 1), "parts must be positive integers, got (0, 1)"),
        ((3, 0), "parts must be positive integers, got (3, 0)"),
        ((-1,), "parts must be positive integers, got (-1,)"),
        ((2, 1), "parts must be weakly increasing, got (2, 1)"),
    ],
)
def test_partition_refusal_messages(parts, message):
    # the first failed check names the fault: type and sign before order
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Partition(parts)


@pytest.mark.parametrize("surface", ["k3", "enriques"])
def test_a_partition_of_a_list_is_refused_before_decide(surface):
    # a list of parts once reached decide: on K3 it fired product rigidity
    # and "(1,2) strictly majorizes (1,2)" against the tuple (1, 2), on
    # enriques it raised TypeError on the unhashable list
    with pytest.raises(ValueError, match="^parts must be a tuple, got list$"):
        decide(catalog_lookup(surface), Partition([1, 2]), Partition((1, 2)))


def test_partition_of_sorts():
    assert Partition.of(3, 1).parts == (1, 3)


def test_partition_parse_reordering():
    p, reordered = Partition.parse("3,1")
    assert p.parts == (1, 3) and reordered
    p, reordered = Partition.parse("1,3")
    assert p.parts == (1, 3) and not reordered


def test_partition_parse_errors():
    for bad in ("", "a,b", "1,-2", "0"):
        with pytest.raises(UsageError):
            Partition.parse(bad)


@pytest.mark.parametrize("literal", ["1,,3", "1,3,", "1, ,3", ",1", ","])
def test_partition_parse_refuses_empty_items(literal):
    message = f"empty item in partition literal: {literal!r}"
    with pytest.raises(UsageError, match=f"^{re.escape(message)}$"):
        Partition.parse(literal)


# -- enumeration -------------------------------------------------------------------


def test_enumerate_partitions_of_four():
    got = [p.parts for p in enumerate_partitions(4)]
    assert got == [(1, 1, 1, 1), (1, 1, 2), (1, 3), (2, 2), (4,)]


def test_enumerate_length_filter():
    got = [p.parts for p in partitions_by_length(4)[2]]
    assert got == [(1, 3), (2, 2)]


def test_enumerate_count_matches_recursive_counter():
    for n in (1, 5, 10, 14):
        assert len(enumerate_partitions(n)) == partition_count(n, n)
    assert len(enumerate_partitions(10)) == 42


def test_enumerate_no_duplicates_and_sorted():
    parts = [p.parts for p in enumerate_partitions(9)]
    assert parts == sorted(set(parts))


def test_enumeration_matches_the_recursive_oracle():
    for n in range(1, 23):
        assert [p.parts for p in enumerate_partitions(n)] == list(recursive_partitions(n))
        buckets = partitions_by_length(n)
        want = recursive_buckets(n)
        assert list(buckets) == list(want)  # key order: first appearance
        assert {r: [p.parts for p in ps] for r, ps in buckets.items()} == want
        tuples = parts_by_length(n)
        assert list(tuples) == list(want) and tuples == want
        assert tuples == {r: [p.parts for p in ps] for r, ps in buckets.items()}
    for n in range(1, 31):
        assert len(enumerate_partitions(n)) == partition_count(n, n)


def test_enumerate_zero_needs_flag():
    with pytest.raises(UsageError):
        enumerate_partitions(0)
    with pytest.raises(UsageError):
        parts_by_length(0)


def test_partitions_by_length_buckets():
    buckets = partitions_by_length(4)
    assert {r: [p.parts for p in ps] for r, ps in buckets.items()} == {
        1: [(4,)],
        2: [(1, 3), (2, 2)],
        3: [(1, 1, 2)],
        4: [(1, 1, 1, 1)],
    }


# -- majorization -------------------------------------------------------------------


def test_majorizes_base_example():
    assert majorizes(Partition((2, 2)), Partition((1, 3))) is Majorization.STRICTLY_MAJORIZES
    assert majorizes(Partition((1, 3)), Partition((2, 2))) is Majorization.MAJORIZED_BY


def test_majorizes_incomparable():
    a = Partition((1, 4, 5))
    b = Partition((2, 2, 6))
    assert majorizes(b, a) is Majorization.INCOMPARABLE


def test_majorizes_equal():
    p = Partition((1, 2, 3))
    assert majorizes(p, p) is Majorization.EQUAL


def test_majorizes_usage_errors():
    with pytest.raises(UsageError, match="same integer: 3 vs 2"):
        majorizes(Partition((2,)), Partition((1, 2)))  # different n and length
    with pytest.raises(UsageError, match="same length: 1 vs 2"):
        majorizes(Partition((1, 3)), Partition((4,)))  # different length
    with pytest.raises(UsageError, match="same integer: 5 vs 3"):
        majorizes(Partition((1, 2)), Partition((1, 4)))  # different n, same length
    with pytest.raises(UsageError, match="same integer: 6 vs 5"):
        majorizes(Partition((2, 3)), Partition((1, 2, 3)))  # n reported first


def _prefix_le(a: tuple, b: tuple) -> bool:
    return all(
        sum(a[: k + 1]) <= sum(b[: k + 1]) for k in range(len(a) - 1)
    )


def test_majorization_is_a_partial_order_exhaustively():
    # reflexivity, antisymmetry, transitivity on every fixed (n, length), n <= 12
    for n in range(1, 13):
        for bucket in partitions_by_length(n).values():
            for p in bucket:
                assert majorizes(p, p) is Majorization.EQUAL
            for a, b in itertools.combinations(bucket, 2):
                ba = majorizes(b, a)
                ab = majorizes(a, b)
                # antisymmetry: both directions strict never happens
                assert not (
                    ba is Majorization.STRICTLY_MAJORIZES
                    and ab is Majorization.STRICTLY_MAJORIZES
                )
                # agreement with a direct prefix-sum evaluation
                assert (ba is Majorization.STRICTLY_MAJORIZES) == _prefix_le(
                    a.parts, b.parts
                )
            for a, b, c in itertools.combinations(bucket, 3):
                for x, y, z in itertools.permutations((a, b, c)):
                    if (
                        majorizes(y, x) is Majorization.STRICTLY_MAJORIZES
                        and majorizes(z, y) is Majorization.STRICTLY_MAJORIZES
                    ):
                        assert majorizes(z, x) is Majorization.STRICTLY_MAJORIZES


def test_a_length_bucket_never_lists_a_majorized_pair_first():
    # the majorization scan pairs each length bucket in ascending lexicographic
    # order: the first partition is smaller at the first differing part, so its
    # prefix sum is smaller there, and it never majorizes the second
    counts = collections.Counter()
    for n in range(1, 23):
        for bucket in parts_by_length(n).values():
            for a, b in itertools.combinations(bucket, 2):
                counts[majorizes(Partition(b), Partition(a))] += 1
    assert counts == {
        Majorization.STRICTLY_MAJORIZES: 104_980, Majorization.INCOMPARABLE: 20_616,
    }


# -- coloured counts ------------------------------------------------------------------


def test_colored_count_refuses_a_negative_n():
    # row -1 would be the table's last row
    colored_count(3, 10)
    with pytest.raises(UsageError, match="n must be nonnegative, got -1"):
        colored_count(3, -1)


def test_colored_count_trivial():
    assert colored_count(17, 0) == 1
    assert colored_count(-3, 0) == 1
    assert colored_count(0, 5) == 0
    for k in range(1, 9):
        assert colored_count(k, 1) == k
        assert colored_count(k, 0) == 1


def test_colored_count_matches_brute_force():
    for k in range(1, 7):
        for n in range(0, 11):
            assert colored_count(k, n) == brute_force_colored(k, n)


def test_colored_count_one_colour_is_partition_count():
    for n in range(1, 13):
        assert colored_count(1, n) == len(enumerate_partitions(n))


def test_colored_count_negative_k():
    # prod (1 - q^m): coefficients of the pentagonal expansion
    got = [colored_count(-1, n) for n in range(8)]
    assert got == [1, -1, -1, 0, 0, 1, 0, 1]


def test_colored_count_tuple_examples():
    assert colored_count_tuple(3, Partition((2, 2))) == 81
    assert colored_count_tuple(3, Partition((1, 3))) == 66
    assert colored_count_tuple(1, Partition((1, 1, 1, 1))) == 1


def test_brute_force_examples():
    assert brute_force_colored(1, 5) == 7
    assert brute_force_colored(24, 2) == 324
    assert brute_force_colored(5, 1) == 5
    assert brute_force_colored(4, 0) == 1


def test_brute_force_refusals():
    with pytest.raises(UsageError):
        brute_force_colored(3, 13)
    with pytest.raises(UsageError):
        brute_force_colored(0, 3)
    assert brute_force_colored(2, 14, bound=14) == colored_count(2, 14)


def test_majorization_monotonicity_small_range():
    # coloured counts respect strict majorization for k in {3,4,5}, n <= 10
    for n in range(1, 11):
        for bucket in partitions_by_length(n).values():
            for a, b in itertools.combinations(bucket, 2):
                order = majorizes(b, a)
                if order is Majorization.STRICTLY_MAJORIZES:
                    lo, hi = a, b
                elif order is Majorization.MAJORIZED_BY:
                    lo, hi = b, a
                else:
                    continue
                for k in (3, 4, 5):
                    assert colored_count_tuple(k, hi) > colored_count_tuple(k, lo)


def test_enumerated_partitions_equal_checked_ones():
    # enumeration skips the checks of Partition(parts); the checked build of
    # the same parts accepts them and gives an equal partition
    for n in range(1, 31):
        for p in enumerate_partitions(n):
            checked = Partition(p.parts)
            assert type(p) is Partition and type(p.parts) is tuple
            assert p == checked and hash(p) == hash(checked) and not p < checked
