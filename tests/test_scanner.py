"""Scanner: pair counts, determinism, serialization, base-case inequalities."""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import operator
import tracemalloc
from collections import Counter
from math import comb, prod
from typing import Any

import pytest

import hilbprod.partitions as partitions
import hilbprod.scanner as scanner
from hilbprod.series import GrowOnlyTable, _goettsche_rows
from hilbprod.errors import UsageError
from hilbprod.partitions import (
    Majorization,
    Partition,
    colored_count_tuple,
    majorizes,
    partitions_by_length,
)
from hilbprod.scanner import (
    CSV_COLUMNS,
    ScanReport,
    Violation,
    scan_conjecture,
    verify_lemma_inequalities,
    verify_majorization,
)
from colour_oracle import (
    brute_force_colored,
    exhaustive_conjecture,
    exhaustive_majorization,
    recursive_buckets,
    transfer_fails,
    transfers,
    tuple_counts,
)
from conftest import fresh_tables
from export_oracle import csv_rows, oracle_exports, to_records


def oracle_length_sizes(n: int) -> list[int]:
    """How many partitions of n there are of each length, from ``oracle_partitions``."""
    return list(Counter(map(len, oracle_partitions(n))).values())


def independent_same_length_pairs(n_max: int) -> int:
    return sum(
        comb(size, 2) for n in range(1, n_max + 1) for size in oracle_length_sizes(n)
    )


def independent_diff_length_pairs(n_max: int) -> int:
    total = 0
    for n in range(1, n_max + 1):
        sizes = oracle_length_sizes(n)
        total += comb(sum(sizes), 2) - sum(comb(size, 2) for size in sizes)
    return total


def oracle_partitions(n: int) -> set[tuple[int, ...]]:
    """Partitions of n as increasing tuples, grown one unit at a time: a new
    part 1, or one existing part raised by 1."""
    grown = {()}
    for _ in range(n):
        grown = {
            tuple(sorted(q))
            for p in grown
            for q in [p + (1,)] + [p[:i] + (p[i] + 1,) + p[i + 1 :] for i in range(len(p))]
        }
    return grown


def oracle_same_length_pairs(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Distinct same-length pairs of n, the one smaller at the first
    differing part first."""
    pairs = []
    for a, b in itertools.combinations(oracle_partitions(n), 2):
        if len(a) != len(b):
            continue
        j = next(i for i in range(len(a)) if a[i] != b[i])
        pairs.append((a, b) if a[j] < b[j] else (b, a))
    return pairs


# -- lemma scans -----------------------------------------------------------------


def test_lemma_diff_length_small():
    report = verify_lemma_inequalities(6, 3, "diff_length")
    assert report.violations == ()
    assert report.pairs_checked == independent_diff_length_pairs(6)
    assert report.scan_kind == "lemma_diff_length"


def test_lemma_diff_length_base_case_values():
    # (2) vs (1,1): products of (part + 1) are 3 < 4
    a, b = Partition((2,)), Partition((1, 1))
    assert (2 + 1) < (1 + 1) * (1 + 1)
    report = verify_lemma_inequalities(4, 1, "diff_length")
    assert report.violations == ()


def test_lemma_same_length_small():
    report = verify_lemma_inequalities(8, 3, "same_length")
    assert report.violations == ()
    assert report.pairs_checked == independent_same_length_pairs(8)


def test_lemma_same_length_base_case_values():
    # (1,3) vs (2,2): 2*4 = 8 < 9 = 3*3
    assert (1 + 1) * (3 + 1) < (2 + 1) * (2 + 1)
    report = verify_lemma_inequalities(4, 1, "same_length")
    assert report.violations == ()
    # exactly one same-length pair exists at n = 4 and none below
    assert report.pairs_checked == 1


def test_lemma_usage_errors():
    with pytest.raises(UsageError):
        verify_lemma_inequalities(3, 2, "diff_length")
    with pytest.raises(UsageError):
        verify_lemma_inequalities(6, 0, "diff_length")
    with pytest.raises(UsageError):
        verify_lemma_inequalities(6, 2, "mixed")


@pytest.mark.parametrize("scan", [verify_majorization, scan_conjecture])
def test_colour_scans_refuse_n_max_0(scan):
    # without the check the scan would report 0 pairs checked
    with pytest.raises(UsageError, match="n_max must be >= 1, got 0"):
        scan({4}, 0)


@pytest.mark.parametrize("scan", [verify_majorization, scan_conjecture])
def test_colour_scans_accept_n_max_1(scan):
    # the least n_max: one partition, so no pair and no violation
    report = scan({4}, 1)
    assert report.pairs_checked == 0 and report.violations == ()


def test_lemma_subset_property():
    small = verify_lemma_inequalities(8, 6, "diff_length")
    large = verify_lemma_inequalities(10, 6, "diff_length")
    assert small.pairs_checked < large.pairs_checked
    assert set(small.violations) <= set(large.violations)


def test_lemma_scan_finds_the_known_equality_witnesses():
    # the strict inequalities genuinely fail in range; the scan must say so
    diff = verify_lemma_inequalities(10, 6, "diff_length")
    assert any(
        v.a == (3, 4) and v.b == (1, 1, 5) and v.k_or_p == 5
        and v.value_a == v.value_b
        for v in diff.violations
    )
    assert any(
        v.a == (5, 5) and v.b == (1, 1, 8) and v.k_or_p == 1
        and v.value_a == v.value_b == 36
        for v in diff.violations
    )
    same = verify_lemma_inequalities(11, 1, "same_length")
    assert any(
        v.a == (1, 5, 5) and v.b == (2, 2, 7) and v.value_a == v.value_b == 72
        for v in same.violations
    )


LEMMA_FORMS = ("unit-shift-product", "shift-ratio-cross-multiplied", "binomial-product")


@pytest.mark.parametrize("mode", ["diff_length", "same_length"])
def test_lemma_forms_agree_at_unit_shift(mode):
    # the scan compares the three forms once at p = 1.  That is sound
    # because they agree there: 1**len is 1 and C(x + 1, 1) is x + 1, so
    # each form is the plain product of (part + 1).  Each failure at p = 1
    # must come as the three forms, consecutive, in form order, with those
    # values.
    violations = verify_lemma_inequalities(14, 6, mode).violations
    at_one = [i for i, v in enumerate(violations) if v.k_or_p == 1]
    assert len(at_one) > 0 and len(at_one) % 3 == 0
    for start in at_one[::3]:
        triple = violations[start : start + 3]
        assert [v.form for v in triple] == list(LEMMA_FORMS)
        assert {v[:5] for v in triple} == {triple[0][:5]}
        a, b = triple[0].a, triple[0].b
        unit = (prod(x + 1 for x in a), prod(x + 1 for x in b))
        assert {(v.value_a, v.value_b) for v in triple} == {unit}


# -- majorization scan ---------------------------------------------------------------


def test_majorization_scan_small():
    report = verify_majorization({3, 4, 5}, 10)
    assert report.violations == ()
    assert report.pairs_checked == independent_same_length_pairs(10)
    assert report.parameter("k_set") == (3, 4, 5)


@pytest.mark.parametrize("scan", [verify_majorization, scan_conjecture])
def test_a_colour_scan_report_hashes_and_keeps_its_fingerprint(scan):
    # k_set is held as a tuple, whether the report comes from the scan, from
    # JSON or from a list given to the constructor
    report = scan({4, 5}, 8)
    fingerprint = report.fingerprint()
    loaded = ScanReport.from_dict(json.loads(json.dumps(report.to_dict())))
    listed = report.replace(parameters=(("k_set", [4, 5]), ("n_max", 8)))
    for twin in (report, loaded, listed):
        assert twin.parameter("k_set") == (4, 5)
        assert twin == report and hash(twin) == hash(report)
        assert twin.fingerprint() == fingerprint
    with pytest.raises(AttributeError):
        report.parameter("k_set").append(99)
    assert report.fingerprint() == fingerprint


def test_majorization_base_pair_values():
    assert colored_count_tuple(3, Partition((2, 2))) == 81
    assert colored_count_tuple(3, Partition((1, 3))) == 66


def every_part_counts_k(k: int, n: int) -> list[int]:
    """Per-part counts all equal to k: a partition of length r counts k^r."""
    return [k] * (n + 1)


def test_majorization_records_follow_the_prefix_sum_order(monkeypatch):
    # with every per-part count equal to k, same-length partitions count
    # alike, so each strictly comparable pair fails the strict inequality
    # once per k; the records must name the pair smaller and bigger in the
    # prefix-sum order, with the k of that value
    monkeypatch.setattr(scanner, "_part_counts", every_part_counts_k)
    expected = []
    for n in range(1, 11):
        for a, b in oracle_same_length_pairs(n):
            sums_a, sums_b = list(itertools.accumulate(a)), list(itertools.accumulate(b))
            if all(x <= y for x, y in zip(sums_a, sums_b)):
                smaller, bigger = a, b
            elif all(x >= y for x, y in zip(sums_a, sums_b)):
                smaller, bigger = b, a
            else:
                continue
            expected += [(n, smaller, bigger, k, k ** len(a), k ** len(a)) for k in (3, 5)]
    report = verify_majorization({5, 3}, 10)
    found = [(v.n, v.a, v.b, v.k_or_p, v.value_a, v.value_b) for v in report.violations]
    assert expected and sorted(found) == sorted(expected)


def test_majorization_requires_k_at_least_3():
    with pytest.raises(UsageError):
        verify_majorization({2, 3}, 8)
    with pytest.raises(UsageError):
        verify_majorization(set(), 8)


def oracle_transfers(parts: tuple[int, ...]) -> set[tuple[int, ...]]:
    """One unit moved from a part y to a part x <= y - 2, re-sorted."""
    moved = set()
    for i, j in itertools.permutations(range(len(parts)), 2):
        if parts[j] - parts[i] >= 2:
            q = list(parts)
            q[i] += 1
            q[j] -= 1
            moved.add(tuple(sorted(q)))
    return moved


def test_transfers_close_to_strict_majorization():
    # the certificate's theorem: within a length bucket, the transitive
    # closure of the one-unit transfers is strict majorization
    for n in range(1, 16):
        for bucket in partitions_by_length(n).values():
            steps = {}
            for p in bucket:
                made = list(transfers(p.parts))
                assert len(made) == len(set(made))
                assert set(made) == oracle_transfers(p.parts)
                steps[p.parts] = set(made)
            closure = set()
            for start in steps:
                seen, todo = set(), list(steps[start])
                while todo:
                    q = todo.pop()
                    if q not in seen:
                        seen.add(q)
                        todo.extend(steps[q])
                closure |= {(start, q) for q in seen}
            strict = {
                (a.parts, b.parts)
                for a, b in itertools.permutations(bucket, 2)
                if majorizes(b, a) is Majorization.STRICTLY_MAJORIZES
            }
            assert closure == strict


def same_exports(report: ScanReport, oracle: ScanReport, tmp_path) -> bool:
    report = report.replace(wall_time_ms=0)
    return exports(report, tmp_path) == exports(oracle, tmp_path)


def test_majorization_failing_everywhere_matches_the_exhaustive_oracle(monkeypatch, tmp_path):
    monkeypatch.setattr(scanner, "_part_counts", every_part_counts_k)
    oracle = exhaustive_majorization({3, 5}, 12)
    assert len(oracle.violations) > 1000
    assert same_exports(verify_majorization({3, 5}, 12), oracle, tmp_path)


def test_majorization_failing_on_one_transfer_matches_the_exhaustive_oracle(
    monkeypatch, tmp_path
):
    # c_4(13) is raised until c_4(1) c_4(13) >= c_4(2) c_4(12).  Up to n = 14
    # the part 13 sits only in (13) and (1,13), so the one transfer that
    # fails is (1,13) -> (2,12), and (1,13) still counts less than (3,11)
    real = scanner._part_counts
    below, top = (1, 13), (2, 12)

    def counts(k, n):
        c = real(k, n)
        if k == 4 and n >= 13:
            c[13] = -(-c[2] * c[12] // c[1])
        return c

    monkeypatch.setattr(scanner, "_part_counts", counts)
    failing = [
        (a.parts, b)
        for n in range(1, 15)
        for a in itertools.chain.from_iterable(partitions_by_length(n).values())
        for b in oracle_transfers(a.parts)
        if any(map(operator.le, tuple_counts(b, (3, 4, 5)), tuple_counts(a.parts, (3, 4, 5))))
    ]
    assert failing == [(below, top)]
    oracle = exhaustive_majorization({3, 4, 5}, 14)
    assert [(v.a, v.b, v.k_or_p) for v in oracle.violations] == [(below, top, 4)]
    assert same_exports(verify_majorization({3, 4, 5}, 14), oracle, tmp_path)


def broken_counts(k_broken: int, x: int, y: int):
    """Real per-part counts, but ``c(y)`` at ``k_broken`` raised until
    ``c(x+1) c(y-1) > c(x) c(y)`` fails."""
    real = scanner._part_counts

    def counts(k, n):
        c = real(k, n)
        if k == k_broken and n >= y:
            c[y] = -(-c[x + 1] * c[y - 1] // c[x])
        return c

    return counts


def broken_inequalities(c: list[int], n: int) -> list[tuple[int, int]]:
    """The (x, y) with 1 <= x <= y - 2, x + y <= n and not c(x+1) c(y-1) > c(x) c(y)."""
    return [
        (x, y)
        for x in range(1, n + 1)
        for y in range(x + 2, n - x + 1)
        if not c[x + 1] * c[y - 1] > c[x] * c[y]
    ]


def log_concavity_failures(c: list[int], top: int) -> list[int]:
    """The m with 2 <= m <= top and not c(m)² > c(m-1) c(m+1)."""
    return [m for m in range(2, top + 1) if not c[m] * c[m] > c[m - 1] * c[m + 1]]


# (which k, x, y): raising c(23) breaks the inequality (7, 23) alone up to
# n = 30; raising c(9) breaks (x, 9) for every x >= 2 and every (9, y)
BROKEN = {"none": None, "one": (min, 7, 23), "many": (max, 2, 9)}


@pytest.mark.parametrize("k_set", [{3}, {4, 5}, {3, 4, 5}], ids=["k3", "k45", "k345"])
@pytest.mark.parametrize("broken", sorted(BROKEN))
def test_majorization_compares_pairwise_exactly_where_log_concavity_fails(
    monkeypatch, k_set, broken
):
    # the log-concavity certificate against a check written here, on real
    # counts and on counts with transfer inequalities broken; raising c(y)
    # breaks log-concavity at m = y - 1 from n = y + 1 on
    k_tuple = tuple(sorted(k_set))
    if BROKEN[broken] is not None:
        pick, x, y = BROKEN[broken]
        counts = broken_counts(pick(k_tuple), x, y)
        found = broken_inequalities(counts(pick(k_tuple), 30), 30)
        assert (found == [(7, 23)]) if broken == "one" else (len(found) > 10)
        monkeypatch.setattr(scanner, "_part_counts", counts)
    sent = []
    monkeypatch.setattr(
        scanner, "_majorization_pairs", lambda n, k_tuple: sent.append(n) or []
    )
    verify_majorization(k_set, 30)
    expected = [
        n
        for n in range(1, 31)
        if any(log_concavity_failures(scanner._part_counts(k, n), n - 2) for k in k_tuple)
    ]
    assert sent == expected
    assert expected == {"none": [], "one": list(range(24, 31)), "many": list(range(10, 31))}[broken]
    # soundness: every n where some transfer fails to raise a count is compared pairwise
    assert {n for n in range(1, 31) if transfer_fails(n, k_tuple)} <= set(sent)


def test_a_certified_majorization_scan_reads_the_counts_once_per_k(monkeypatch):
    # the certificate is checked once per k up to n_max, not again at each n
    calls = []
    real = scanner._part_counts
    monkeypatch.setattr(scanner, "_part_counts", lambda k, n: calls.append((k, n)) or real(k, n))
    report = verify_majorization({3, 4, 5}, 100)
    assert report.violations == ()
    assert calls == [(3, 100), (4, 100), (5, 100)]


def test_log_concavity_implies_every_transfer_inequality():
    # the (x, y) of n = 200 contain those of every smaller n
    for k in range(3, 13):
        c = scanner._part_counts(k, 200)
        assert log_concavity_failures(c, 198) == []
        assert broken_inequalities(c, 200) == []
    # chi >= 3 on every literal catalog row and family default, and all of 3..24
    for k in [*range(3, 25), 36, 55]:
        assert log_concavity_failures(scanner._part_counts(k, 400), 398) == [], k
    # the check can fail: p(n) = c_1 at the odd m up to 25 (DeSalvo and Pak), c_2 twice
    assert log_concavity_failures(scanner._part_counts(1, 59), 58) == list(range(3, 26, 2))
    assert log_concavity_failures(scanner._part_counts(2, 59), 58) == [3, 5]


def coin_change_same_length_pairs(n_max: int) -> int:
    """Same-length pairs up to n_max: a partition of n into exactly r parts,
    less 1 from every part, is a partition of n - r into parts <= r."""
    ways = [1] + [0] * n_max
    at_most = [ways[:]]  # at_most[r][m]: partitions of m into parts <= r
    for part in range(1, n_max + 1):
        for m in range(part, n_max + 1):
            ways[m] += ways[m - part]
        at_most.append(ways[:])
    return sum(
        comb(at_most[r][n - r], 2) for n in range(1, n_max + 1) for r in range(1, n + 1)
    )


def test_majorization_certifies_k_3_to_24_36_and_55_at_scale(monkeypatch):
    calls = []

    def counted(b, a):
        calls.append((b, a))
        return majorizes(b, a)

    monkeypatch.setattr(scanner, "majorizes", counted)
    report = verify_majorization(set(range(3, 25)) | {36, 55}, 120)
    assert report.violations == () and calls == []
    assert report.pairs_checked == coin_change_same_length_pairs(120)


def test_majorization_certificate_makes_no_pairwise_comparison(monkeypatch):
    calls = []

    def counted(b, a):
        calls.append((b, a))
        return majorizes(b, a)

    monkeypatch.setattr(scanner, "majorizes", counted)
    report = verify_majorization({3, 4, 5}, 22)
    assert report.violations == () and calls == []
    # the fallback does go through the scanner's global
    monkeypatch.setattr(scanner, "_part_counts", every_part_counts_k)
    verify_majorization({3}, 6)
    assert calls


@pytest.mark.parametrize("scan", ["majorization", "conjecture"])
def test_colour_scans_enumerate_through_the_module_global(monkeypatch, scan):
    # a tracer that wraps partitions._ascending_partitions, the generator
    # behind parts_by_length, sees each n that builds parts tuples: for the
    # conjecture scan n_max alone, where it has a collision, for the
    # majorization scan an n whose certificate fails; every other n is
    # counted without enumerating
    calls = []
    original = partitions._ascending_partitions

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(partitions, "_ascending_partitions", counted)
    if scan == "conjecture":
        scan_conjecture({4}, 8)
        assert calls == []
        report = scan_conjecture({1, 2}, 8)
        assert calls == [8] and 8 in {v.n for v in report.violations}
    else:
        verify_majorization({3}, 8)
        assert calls == []
        # equal counts fail log-concavity at every m; n <= 3 has no m, so stays certified
        monkeypatch.setattr(scanner, "_part_counts", every_part_counts_k)
        verify_majorization({3}, 8)
        assert calls == list(range(4, 9))


def test_length_counts_match_the_recursive_oracle():
    # p(n, r) from the recurrence, against the oracle's own enumeration
    for n in range(1, 23):
        buckets = recursive_buckets(n)
        assert scanner._length_counts(n) == [len(buckets.get(r, ())) for r in range(n + 1)]
    assert verify_majorization({3, 4, 5}, 22).pairs_checked == independent_same_length_pairs(22)


def test_length_counts_are_the_kernel_rows_of_prod_one_over_one_minus_z_t_m():
    # p(n, r) is the coefficient of z^r t^n in prod_m (1 - z t^m)^-1
    kernel = GrowOnlyTable(1, _goettsche_rows([(-1, -1, 0, 1)]))
    for n in range(41):
        assert scanner._length_counts(n) == kernel.rows_upto(n)[n], n


# -- conjecture scan -------------------------------------------------------------------


def test_conjecture_scan_small():
    report = scan_conjecture({4, 5}, 10)
    assert report.violations == ()
    assert report.pairs_checked == independent_same_length_pairs(10)


def test_conjecture_no_collision_base_pair():
    # p4 values: 4*40 = 160 vs 14^2 = 196
    assert colored_count_tuple(4, Partition((1, 3))) == 160
    assert colored_count_tuple(4, Partition((2, 2))) == 196


def test_conjecture_trivial_range():
    report = scan_conjecture({4}, 1)
    assert report.pairs_checked == 0 and report.violations == ()


def test_conjecture_exploratory_small_k_allowed():
    # k = 1 and 2 are permitted for exploration; collisions, if any, are
    # reported as findings rather than raised
    report = scan_conjecture({1, 2}, 8)
    for v in report.violations:
        assert v.value_a == v.value_b
        assert colored_count_tuple(v.k_or_p, Partition(v.a)) == v.value_a
    # the full collision set at n <= 10 against products of brute-force counts
    expected = set()
    for n in range(1, 11):
        for a, b in oracle_same_length_pairs(n):
            for k in (1, 2):
                va, vb = (prod(brute_force_colored(k, part) for part in q) for q in (a, b))
                if va == vb:
                    expected.add((n, a, b, k, va))
    report = scan_conjecture({1, 2}, 10)
    found = [(v.n, v.a, v.b, v.k_or_p, v.value_a) for v in report.violations]
    assert expected and len(found) == len(set(found))
    assert set(found) == expected
    assert all(v.value_a == v.value_b for v in report.violations)


# k = -1 adds classes of up to 21 partitions and pairs that collide at two k;
# with k = 0 every partition counts 0 (c_0(m) = 0 for m >= 1), so every
# length bucket collides and every n names its witnesses
@pytest.mark.parametrize(
    "k_set", [{1, 2}, {1, 2, 3}, {-1, 1, 2}, {0, 4}], ids=["k12", "k123", "k-112", "k04"]
)
def test_conjecture_matches_the_exhaustive_oracle(tmp_path, k_set):
    oracle = exhaustive_conjecture(k_set, 14)
    assert len(oracle.violations) >= 72
    assert same_exports(scan_conjecture(k_set, 14), oracle, tmp_path)


@pytest.mark.parametrize("n_max", range(18, 25))
def test_conjecture_collisions_below_n_max_match_the_exhaustive_oracle(tmp_path, n_max):
    # k = 3 first collides at n = 18, and at n = 20 a pair starts that no
    # unit part carries up from 19: each smaller n is read off n_max
    oracle = exhaustive_conjecture({3}, n_max)
    assert same_exports(scan_conjecture({3}, n_max), oracle, tmp_path)
    first = oracle.violations[0]
    assert (first.n, first.a, first.b) == (18, (1, 1, 3, 5, 8), (2, 2, 2, 2, 10))
    if n_max >= 20:
        assert (20, (1, 1, 2, 3, 5, 8), (2, 2, 2, 2, 2, 10)) in {
            (v.n, v.a, v.b) for v in oracle.violations
        }


def test_conjecture_scan_memory_does_not_grow_with_the_k_set():
    # one k's values are held at a time; warm runs first, so the grow-only
    # tables of every k are built before either peak is read
    def peak(k_set):
        scan_conjecture(k_set, 30)
        tracemalloc.start()
        try:
            scan_conjecture(k_set, 30)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak({4, 5, 6}) <= 1.3 * peak({4})


def test_wall_time_covers_the_walk_of_every_k(monkeypatch):
    # a clock that moves 1.5 s per walk and not otherwise: the walks run
    # between the two readings of the driver, and the report counts ms
    clock = [0.0]
    real = scanner._products_by_length

    def walk(n, c):
        clock[0] += 1.5
        return real(n, c)

    class Clock:
        @staticmethod
        def perf_counter():
            return clock[0]

    monkeypatch.setattr(scanner, "_products_by_length", walk)
    monkeypatch.setattr(scanner, "time", Clock)
    assert scan_conjecture({4, 5}, 9).wall_time_ms == 3000


@pytest.mark.parametrize(
    "scan, counter",
    [
        (lambda: verify_lemma_inequalities(9, 2, "diff_length"), "_diff_length_pairs"),
        (lambda: verify_lemma_inequalities(9, 2, "same_length"), "_same_length_pairs"),
        (lambda: verify_majorization({3}, 9), "_same_length_pairs"),
        (lambda: scan_conjecture({4}, 9), "_same_length_pairs"),
    ],
    ids=["diff_length", "same_length", "majorization", "conjecture"],
)
def test_wall_time_covers_the_pair_count_of_every_n(monkeypatch, scan, counter):
    # a clock that moves 1 s per closed-form pair count and not otherwise:
    # the nine counts of pairs_checked fall inside the report's wall time
    clock = [0.0]
    real = getattr(scanner, counter)

    def pairs(n):
        clock[0] += 1.0
        return real(n)

    class Clock:
        @staticmethod
        def perf_counter():
            return clock[0]

    monkeypatch.setattr(scanner, counter, pairs)
    monkeypatch.setattr(scanner, "time", Clock)
    report = scan()
    assert report.wall_time_ms == 9000
    assert report.pairs_checked == sum(map(real, range(1, 10)))


def test_conjecture_scan_refuses_more_than_five_million_partitions(monkeypatch):
    # p(71) = 4,697,205 and p(72) = 5,392,783; the refusal walks nothing
    def no_walk(*args):
        pytest.fail("the scan walked a partition of a refused n_max")

    assert sum(scanner._length_counts(71)) == 4_697_205
    scanner._refuse_a_long_walk(71)
    monkeypatch.setattr(scanner, "_products_by_length", no_walk)
    with pytest.raises(UsageError, match=r"p\(72\) = 5,392,783 .* limit is 5,000,000 \(n_max <= 71\)"):
        scan_conjecture({4}, 72)
    with pytest.raises(UsageError, match=r"p\(10000000\) >= p\(72\) = 5,392,783"):
        scan_conjecture({4, 5}, 10**7)


def test_lemma_pair_counts_in_closed_form_match_the_oracle():
    for n_max in range(1, 13):
        diff = sum(map(scanner._diff_length_pairs, range(1, n_max + 1)))
        same = sum(map(scanner._same_length_pairs, range(1, n_max + 1)))
        assert diff == independent_diff_length_pairs(n_max), n_max
        assert same == independent_same_length_pairs(n_max), n_max


@pytest.mark.parametrize(
    "mode, largest, refused",
    [
        # 3 * 6 * 446,222 = 8,031,996 at diff_length's n_max = 20
        ("diff_length", 20, r"3 p_max pairs\(21\) = 13,138,830 violations"),
        ("same_length", 25, r"3 p_max pairs\(26\) = 12,934,368 violations"),
    ],
)
def test_lemma_scans_refuse_more_than_ten_million_violations(monkeypatch, mode, largest, refused):
    # a lemma scan records at most 2 p_max + 1 violations per pair: the
    # refusal bounds them by 3 p_max per pair and scans nothing
    def no_bucket(*args):
        pytest.fail("the scan ran a bucket of a refused n_max")

    monkeypatch.setattr(scanner, "_lemma_bucket", no_bucket)
    limit = rf"the limit is 10,000,000 \(n_max <= {largest}\)"
    message = rf"n_max = {largest + 1}, p_max = 6 .*{refused}.*{limit}"
    with pytest.raises(UsageError, match=message):
        verify_lemma_inequalities(largest + 1, 6, mode)
    with pytest.raises(UsageError, match=rf"pairs\(10000000\) >= 3 p_max pairs\({largest + 1}\)"):
        verify_lemma_inequalities(10**7, 6, mode)
    # the bound grows with p_max: the refused n_max runs at p_max = 1
    monkeypatch.setattr(scanner, "_lemma_bucket", lambda *args: [])
    assert verify_lemma_inequalities(largest, 6, mode).violations == ()
    assert verify_lemma_inequalities(largest + 1, 1, mode).violations == ()


def test_lemma_scans_refuse_more_than_two_million_held_ints(monkeypatch):
    # a lemma bucket holds 3 (p_max + 1) shift-product ints per partition
    # of n: p(8) = 22 gives 3 * 30,303 * 22 = 1,999,998 at p_max = 30,302
    def no_bucket(*args):
        pytest.fail("the scan ran a bucket of a refused input")

    monkeypatch.setattr(scanner, "_lemma_bucket", no_bucket)
    with pytest.raises(
        UsageError,
        match=r"n_max = 8, p_max = 30303 would hold 3 \(p_max \+ 1\) p\(8\) = 2,000,064 "
        r"shift-product ints.* the limit is 2,000,000 \(n_max <= 7\)$",
    ):
        verify_lemma_inequalities(8, 30_303, "same_length")
    # p(5) = 7 and p(4) = 5: n_max = 4 still runs at p_max = 100,000
    with pytest.raises(UsageError, match=r"p\(5\) = 2,100,021 .*\(n_max <= 4\)$"):
        verify_lemma_inequalities(5, 100_000, "diff_length")
    monkeypatch.setattr(scanner, "_lemma_bucket", lambda *args: [])
    assert verify_lemma_inequalities(8, 30_302, "same_length").violations == ()
    assert verify_lemma_inequalities(4, 100_000, "diff_length").violations == ()


@pytest.mark.parametrize(
    "mode, p_max, refused",
    [
        # 3 p_max pairs(3) = 12,000,000 violations: no n_max >= 4 runs
        ("diff_length", 10**6, r"3 p_max pairs\(4\) >= 3 p_max pairs\(3\) = 12,000,000"),
        # one pair, but 3 (p_max + 1) p(3) = 2,700,009 held ints
        ("same_length", 300_000, r"3 \(p_max \+ 1\) p\(4\) >= 3 \(p_max \+ 1\) p\(3\) = 2,700,009"),
    ],
)
def test_a_lemma_refusal_below_n_max_4_names_p_max(mode, p_max, refused):
    # the scan's least n_max is 4, so a limit reached below it is p_max's fault
    with pytest.raises(
        UsageError, match=rf"{refused} .*\(p_max = {p_max} is too large for every n_max >= 4\)$"
    ):
        verify_lemma_inequalities(4, p_max, mode)


def test_a_lemma_refusal_at_n_max_5_names_n_max_4():
    # 3 p_max pairs(4) = 4,680,000 runs; pairs(5) = 32 does not
    with pytest.raises(UsageError, match=r"pairs\(5\) = 11,520,000 .*\(n_max <= 4\)$"):
        verify_lemma_inequalities(5, 120_000, "diff_length")


def test_majorization_scan_refuses_more_than_n_max_3000(monkeypatch):
    # its pair counts hold C(n_max + 2, 2) counts p(m, r); the refusal
    # certifies nothing and counts no pair
    def no_work(*args, **kwargs):
        pytest.fail("the scan worked on a refused n_max")

    monkeypatch.setattr(scanner, "_certified_upto", no_work)
    monkeypatch.setattr(scanner, "_same_length_pairs", no_work)
    with pytest.raises(
        UsageError,
        match=r"n_max = 3001 would hold C\(3001 \+ 2, 2\) = 4,507,503 partition counts"
        r".* limit is 4,504,501 \(n_max <= 3000\)",
    ):
        verify_majorization({3}, 3001)
    with pytest.raises(UsageError, match=r"C\(100000 \+ 2, 2\) >= C\(3001 \+ 2, 2\) = 4,507,503"):
        verify_majorization({3, 4}, 100_000)
    monkeypatch.setattr(scanner, "_certified_upto", lambda k_tuple, n_max: n_max)
    monkeypatch.setattr(scanner, "_same_length_pairs", lambda n: 1)
    assert verify_majorization({3}, 3000).pairs_checked == 3000


def test_the_partition_walk_multiplies_the_counts_of_each_length_bucket():
    # against the products over the oracle's own enumeration, in its order
    ks = (-4, -1, 0, 1, 2, 5, 24)
    for n in range(1, 23):
        buckets = recursive_buckets(n)
        for k in ks:
            c = scanner._part_counts(k, n)
            products = partitions._products_by_length(n, c)
            assert len(products) == n + 1 and products[0] == []
            for r in range(1, n + 1):
                expected = [prod(c[p] for p in q) for q in buckets.get(r, [])]
                assert products[r] == expected, (n, k, r)



SCOPED_K_SETS = {"k12": {1, 2}, "k04": {0, 4}, "k-112": {-1, 1, 2}}


@pytest.mark.parametrize("k_set", SCOPED_K_SETS.values(), ids=SCOPED_K_SETS)
def test_a_shorter_conjecture_scan_lists_the_prefix_of_a_longer_one(k_set):
    # each scan reads every n off its own n_max, so stopping early leaves
    # out the larger n and changes nothing below them
    full = scan_conjecture(k_set, 14).violations
    for m in range(1, 15):
        assert scan_conjecture(k_set, m).violations == tuple(v for v in full if v.n <= m), m


def test_conjecture_scans_run_back_to_back_match_fresh_ones(monkeypatch):
    # the walk lives for one scan: no k-set, n_max or shared k of an
    # earlier scan reaches a later one
    runs = [({1, 2}, 14), ({-1, 1, 2}, 10), ({0, 4}, 12), ({1, 2}, 9), ({4}, 14)]
    fresh = []
    for k_set, n_max in runs:
        fresh_tables(monkeypatch)
        fresh.append(scan_conjecture(k_set, n_max).fingerprint())
    assert [scan_conjecture(*run).fingerprint() for run in runs] == fresh
    assert [scan_conjecture(*run).fingerprint() for run in reversed(runs)] == fresh[::-1]


# -- determinism and serialization ------------------------------------------------------


def test_reports_are_deterministic_across_runs():
    r1 = verify_lemma_inequalities(7, 2, "same_length")
    r2 = verify_lemma_inequalities(7, 2, "same_length")
    assert r1.fingerprint() == r2.fingerprint()


def test_reports_are_deterministic_across_worker_counts():
    for mode in ("diff_length", "same_length"):
        l1 = verify_lemma_inequalities(9, 6, mode, workers=1)
        l2 = verify_lemma_inequalities(9, 6, mode, workers=2)
        assert l1.fingerprint() == l2.fingerprint()


def test_scans_refuse_fewer_than_one_worker():
    for workers in (0, -3):
        with pytest.raises(UsageError, match=f"workers must be >= 1, got {workers}"):
            verify_lemma_inequalities(6, 2, "same_length", workers=workers)


SIZED_SCANS = {
    "lemma": lambda n_max=6, p_max=2, workers=1: verify_lemma_inequalities(
        n_max, p_max, "same_length", workers=workers
    ),
    "majorization": lambda n_max=6: verify_majorization({3}, n_max),
    "conjecture": lambda n_max=6: scan_conjecture({4}, n_max),
}


@pytest.mark.parametrize(
    "scan, size",
    [(scan, size) for scan in SIZED_SCANS for size in ("n_max", "p_max", "workers")
     if scan == "lemma" or size == "n_max"],
)
@pytest.mark.parametrize("bad", [True, False, 6.0, 2.5], ids=repr)
def test_scans_refuse_sizes_that_are_not_plain_ints(scan, size, bad):
    # a bool would be recorded as true in the report's parameters
    with pytest.raises(UsageError, match=f"{size} must be a plain int"):
        SIZED_SCANS[scan](**{size: bad})


def test_no_scan_starts_a_pool(monkeypatch):
    # the lemma scan's workers= is checked and ignored: every scan runs serially
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    verify_majorization({3, 4}, 9)
    scan_conjecture({4, 5}, 9)
    serial = verify_lemma_inequalities(9, 6, "diff_length").fingerprint()
    for workers in (2, 10**6):
        assert verify_lemma_inequalities(9, 6, "diff_length", workers=workers).fingerprint() == serial


def test_colour_scans_take_no_workers():
    for scan in (verify_majorization, scan_conjecture):
        with pytest.raises(TypeError, match="workers"):
            scan({4}, 6, workers=1)


def test_report_round_trip():
    report = verify_majorization({3}, 8)
    parsed = ScanReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert parsed == report


def test_violation_round_trip():
    v = Violation("conjecture", 6, (1, 5), (2, 4), 4, 10, 10, "collision")
    assert Violation.from_dict(v.to_dict()) == v
    # a record written before the form column existed loads with form ""
    old = {key: value for key, value in v.to_dict().items() if key != "form"}
    assert Violation.from_dict(old) == Violation("conjecture", 6, (1, 5), (2, 4), 4, 10, 10)
    assert Violation.from_dict(old).form == ""


# sha256 of fingerprint(), the CSV file and the JSON Lines file (wall time
# set to 0), recorded before Violation became a named tuple; any change to
# an exported byte, engine version included, shows here
PINNED_EXPORTS = {
    "diff_length": (
        lambda: verify_lemma_inequalities(10, 6, "diff_length"),
        "e1b2a3d08a6cd97107e0b03454bf16972e8625f8c0fc5f528d61e48d35e6899b",
        "723939b6ea47cfa1fd7ada7f4765057f46e809511037bc373e01c58ecadc87c5",
        "f592f0484bf4ef09b4f2adbf5076c0d4b7185f870943273a769fab35043028ac",
    ),
    "same_length": (
        lambda: verify_lemma_inequalities(10, 6, "same_length"),
        "a690ced730b677331bfa72b1869b826d32224b019160b91f292453faf80beaf7",
        "ff00e3e7b5a3eafcbd5d13feb9f7a8fe3ae9e6551c3077f89b27590c4b9b4333",
        "29cac06b76184499cd5d51fb0cf645ddd4ec43ad93ea96bcbb30109b82ae4cf3",
    ),
    "majorization": (
        lambda: verify_majorization({3, 4}, 10),
        "51224c272143e44f45039aa19740db312394e51dd7445c4984a0bc71c1224f24",
        "21fefb4000323eea885fba0ccc1f0db547e4179b4d07a13d99cb27a26dec5008",
        "864431e8dc712017b86ef0c7008928957eda187680b9cacfdc0008e06268aa6d",
    ),
    "conjecture": (
        lambda: scan_conjecture({1, 2}, 10),
        "2441a956dec600283d67c1b261118fe909f5c819173eda43be1baca1736a1958",
        "899492bb22e289b9f09bbfa9a79a99bff46aa61fb78c095220baca1d1747e43a",
        "841819c6233966221e7f8007fac28fdcd5e249a29c6e1cdb2da70e11e07e73f8",
    ),
    # 693 collisions
    "conjecture_k12_n20": (
        lambda: scan_conjecture({1, 2}, 20),
        "c68e1984b85896817c67fcd78b0efd4f0d50b8406763f6bc5a4211c50a18f36b",
        "b576e200badc840a4101463f8793e648696ddb48604064a42355bd8047158fea",
        "2ffa57dc8d4875d8efe8342706e7d8f742a243bc13e758cb2e6c7885f557e84a",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_EXPORTS))
def test_exports_are_pinned(tmp_path, name):
    scan, *expected = PINNED_EXPORTS[name]
    report = scan().replace(wall_time_ms=0)
    report.write_csv(tmp_path / "report.csv")
    report.write_records(tmp_path / "report.jsonl")
    exported = [
        report.fingerprint().encode(),
        (tmp_path / "report.csv").read_bytes(),
        (tmp_path / "report.jsonl").read_bytes(),
    ]
    assert [hashlib.sha256(data).hexdigest() for data in exported] == expected


def test_csv_export(tmp_path):
    report = scan_conjecture({4}, 6)
    path = tmp_path / "report.csv"
    report.write_csv(path)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + len(report.violations)


def test_csv_rows_stable_columns():
    v = Violation("majorization", 4, (1, 3), (2, 2), 3, 66, 81, "x")
    report = ScanReport(
        scan_kind="majorization",
        parameters=(("k_set", [3]), ("n_max", 4)),
        pairs_checked=1,
        violations=(v,),
        wall_time_ms=0,
        engine_version="0.0.0",
    )
    (row,) = csv_rows(report)
    assert tuple(row) == CSV_COLUMNS
    assert row["a"] == "1,3" and row["b"] == "2,2"


def test_lemma_csv_rows_are_distinct():
    # the unit-shift, shift-ratio and binomial values coincide at p = 1, so
    # only the form tells those rows apart
    rows = csv_rows(verify_lemma_inequalities(10, 6, "diff_length"))
    assert len(rows) == 486
    assert len({tuple(row.values()) for row in rows}) == len(rows)


def test_record_set_round_trip():
    report = verify_lemma_inequalities(10, 6, "diff_length")
    assert len(report.violations) > 0
    records = to_records(report)
    assert records[0]["record"] == "header"
    assert len(records) == 1 + len(report.violations)
    assert ScanReport.from_records(records) == report


def test_record_set_file(tmp_path):
    report = verify_majorization({3}, 8)
    path = tmp_path / "records.jsonl"
    report.write_records(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + len(report.violations)
    assert json.loads(lines[0])["record"] == "header"


def test_fingerprint_excludes_wall_time():
    report = verify_majorization({3}, 6)
    slower = ScanReport(
        scan_kind=report.scan_kind,
        parameters=report.parameters,
        pairs_checked=report.pairs_checked,
        violations=report.violations,
        wall_time_ms=report.wall_time_ms + 12345,
        engine_version=report.engine_version,
    )
    assert report.fingerprint() == slower.fingerprint()
    assert report != slower


# -- the exports against their dict oracles ---------------------------------------------


def exports(report: ScanReport, tmp_path) -> list[bytes]:
    report.write_csv(tmp_path / "report.csv")
    report.write_records(tmp_path / "report.jsonl")
    return [
        report.fingerprint().encode(),
        (tmp_path / "report.csv").read_bytes(),
        (tmp_path / "report.jsonl").read_bytes(),
    ]


def handmade_report(*violations: Violation, **fields) -> ScanReport:
    return ScanReport(**{
        "scan_kind": "majorization",
        "parameters": (("k_set", [3, 4]), ("n_max", 12)),
        "pairs_checked": 7,
        "violations": violations,
        "wall_time_ms": 3,
        "engine_version": "0.0.0",
        **fields,
    })


EDGE_VIOLATIONS = (
    Violation("majorization", 5, (5,), (1, 4), 3, 2**64 + 1, 2**70, ""),
    Violation("majorization", 5, (1, 4), (5,), 4, 0, -(2**65), 'quote " and ü'),
    Violation("conjecture", 6, (1, 5), (2, 4), 4, 10, 10, "collision"),
    # equal parts in distinct tuple objects
    Violation("conjecture", 6, tuple([1, 5]), tuple([2, 4]), 5, 11, 11, "collision"),
    Violation("conjecture", 1, (1,), (1,), 1, 1, 1),
    # equal forms of different types: 1 == True, but their texts differ
    Violation("conjecture", 6, (1, 5), (2, 4), 4, 10, 10, 1),
    Violation("conjecture", 6, (1, 5), (2, 4), 4, 10, 10, True),
    # a form whose JSON has keys to sort
    Violation("conjecture", 6, (1, 5), (2, 4), 4, 10, 10, {"b": 1, "a": [2]}),
)


# runs of one object, for the exports' reuse of the row before: a parts
# tuple coming back after another, equal but distinct tuples side by side,
# a kind changing mid-report, and forms alternating, among them equal forms
# of different types
_A, _B, _C, _TWIN = (1, 5), (2, 4), (3, 3), tuple([1, 5])
RUN_VIOLATIONS = (
    Violation("lemma_diff_length", 6, _A, _B, 1, 10, 12, "unit-shift-product"),
    Violation("lemma_diff_length", 6, _A, _B, 1, 10, 12, "binomial-product"),
    Violation("lemma_diff_length", 6, _C, _B, 2, 15, 14, "unit-shift-product"),
    Violation("lemma_diff_length", 6, _A, _C, 2, 16, 16, "binomial-product"),
    Violation("lemma_diff_length", 6, _C, _A, 3, 20, 20, "unit-shift-product"),
    Violation("lemma_diff_length", 6, _TWIN, _A, 3, 21, 21, "binomial-product"),
    Violation("lemma_diff_length", 6, _A, _TWIN, 3, 21, 21, "binomial-product"),
    Violation("lemma_same_length", 6, _A, _B, 4, 30, 30, "unit-shift-product"),
    Violation('kind, "quoted"', 6, _A, _B, 4, 30, 30, "unit-shift-product"),
    Violation("lemma_diff_length", 6, _A, _B, 4, 30, 30, "unit-shift-product"),
    Violation("lemma_diff_length", 6, _A, _B, 5, 40, 40, 1),
    Violation("lemma_diff_length", 6, _A, _B, 5, 40, 40, True),
    Violation("lemma_diff_length", 6, _A, _B, 5, 40, 40, 1),
    Violation("lemma_diff_length", 6, _A, _B, 5, 40, 40, "binomial-product"),
    Violation("lemma_diff_length", 6, _A, _B, 5, 40, 40, "unit-shift-product"),
)


@pytest.mark.parametrize("mode", ["diff_length", "same_length"])
def test_lemma_exports_match_the_dict_oracles(tmp_path, mode):
    report = verify_lemma_inequalities(12, 6, mode)
    assert len(report.violations) > 100
    assert exports(report, tmp_path) == oracle_exports(report, tmp_path)
    # loaded back, no two violations share a parts tuple or a form object
    loaded = ScanReport.from_records(to_records(report))
    assert exports(loaded, tmp_path) == oracle_exports(report, tmp_path)


# a kind or form that is a tuple, or the very tuple object a part is: the CSV
# writes it as "(1, 5)", where the part's cell is "1,5"
_PART = (1, 5)
TUPLE_TEXT_VIOLATIONS = {
    "tuple-kind-and-form": (
        Violation(("conjecture", 4), 6, (1, 5), (2, 4), 4, 10, 10, (3, 3)),
        Violation(("conjecture", 5), 6, (1, 5), (2, 4), 5, 11, 11, ("a", "b")),
    ),
    "kind-is-a-part": (
        Violation(_PART, 6, _PART, (2, 4), 4, 10, 10, "collision"),
        Violation(_PART, 6, (2, 4), _PART, 5, 11, 11, "collision"),
    ),
    "form-is-a-part": (
        Violation("conjecture", 6, _PART, (2, 4), 4, 10, 10, _PART),
        Violation("conjecture", 6, (2, 4), _PART, 5, 11, 11, _PART),
    ),
}


@pytest.mark.parametrize(
    "report",
    [
        handmade_report(),
        # one violation: the fingerprint's first and last texts are one string
        handmade_report(EDGE_VIOLATIONS[0]),
        handmade_report(*EDGE_VIOLATIONS),
        handmade_report(*EDGE_VIOLATIONS[:2], scan_kind="lemma_diff_length",
                        parameters=(("n_max", 5), ("p_max", 6))),
        handmade_report(*RUN_VIOLATIONS, scan_kind="lemma_diff_length",
                        parameters=(("n_max", 6), ("p_max", 5))),
        *(handmade_report(*violations) for violations in TUPLE_TEXT_VIOLATIONS.values()),
    ],
    ids=["empty", "one", "edge-cases", "lemma-parameters", "runs", *TUPLE_TEXT_VIOLATIONS],
)
def test_handmade_exports_match_the_dict_oracles(tmp_path, report):
    assert exports(report, tmp_path) == oracle_exports(report, tmp_path)


def test_each_object_becomes_text_once_per_export(monkeypatch, tmp_path):
    report = verify_lemma_inequalities(12, 6, "diff_length")
    parts = {id(q) for v in report.violations for q in (v.a, v.b)}
    texts = {id(x) for v in report.violations for x in (v.scan_kind, v.form)}
    cells: list[Any] = []
    cell = scanner._csv_cell

    def counting(value: Any) -> str:
        cells.append(value)
        return cell(value)

    monkeypatch.setattr(scanner, "_csv_cell", counting)
    report.write_csv(tmp_path / "report.csv")
    assert len(cells) == len(parts) + len(texts)
    assert len(parts) < 300 and len(report.violations) > 1000


# cells that csv.writer quotes (a comma, a quote, a line break) or writes
# in its own way (None empty, a float by repr), in the kind and form columns
QUOTING_VIOLATIONS = (
    Violation("line\nbreak", 6, (1, 5), (2, 4), 4, 10, 10, "carriage\rreturn"),
    Violation("conjecture", 6, (1, 5), (2, 4), 4, 10, 10, "\r\n"),
    Violation("comma,kind", 6, (1, 5), (2, 4), 4, 10, 10, "a, b"),
    Violation('""', 6, (1, 5), (2, 4), 4, 10, 10, 'say ""twice""'),
    Violation(" leading space", 6, (1, 5), (2, 4), 4, 10, 10, " form"),
    Violation(None, 6, (1, 5), (2, 4), 4, 10, 10, None),
    Violation(0.1, 6, (1, 5), (2, 4), 4, 10, 10, 0.1),
    # empty cells among others stay unquoted
    Violation("", 0, (), (), 4, 10, 10, ""),
)


def test_csv_cells_quote_as_csv_writer_does(tmp_path):
    report = handmade_report(*QUOTING_VIOLATIONS)
    assert exports(report, tmp_path) == oracle_exports(report, tmp_path)


def test_written_records_load_back_into_the_report(tmp_path):
    for report in (
        handmade_report(*EDGE_VIOLATIONS),
        handmade_report(),
        verify_lemma_inequalities(10, 6, "same_length"),
    ):
        path = tmp_path / "report.jsonl"
        report.write_records(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert ScanReport.from_records(records) == report


NOT_PLAIN_INTS = [True, False, 1.0, 2.5, "1", None]


@pytest.mark.parametrize("field", ["n", "k_or_p", "value_a", "value_b", "a", "b"])
@pytest.mark.parametrize("bad", NOT_PLAIN_INTS, ids=repr)
def test_violation_from_dict_refuses_what_is_not_a_plain_int(field, bad):
    # Violation.from_dict does not check; the report it is loaded into does
    record = EDGE_VIOLATIONS[2].to_dict()
    record[field] = [1, bad] if field in ("a", "b") else bad
    header = {"record": "header", **handmade_report().to_dict()}
    del header["violations"]
    with pytest.raises(ValueError, match=f"field {field} "):
        ScanReport.from_records([header, {"record": "violation", **record}])
    with pytest.raises(ValueError, match=f"field {field} "):
        ScanReport.from_dict({**header, "violations": [record]})


def test_a_report_holds_its_violations_as_a_tuple():
    report = scan_conjecture({4}, 6)
    v = Violation("conjecture", 6, (1, 5), (2, 4), 4, 10, 10, "collision")
    listed = report.replace(violations=[v])
    assert listed.violations == (v,) and type(listed.violations) is tuple
    assert listed == report.replace(violations=(v,))
    assert hash(listed) == hash(report.replace(violations=(v,)))
    # a scan's tuple is kept as it is
    assert report.replace(wall_time_ms=0).violations is report.violations


@pytest.mark.parametrize("field", ["n", "k_or_p", "value_a", "value_b", "a", "b"])
@pytest.mark.parametrize("bad", NOT_PLAIN_INTS, ids=repr)
def test_exports_refuse_what_is_not_a_plain_int(field, bad):
    # refused when the report is built, so no export can meet it
    good = EDGE_VIOLATIONS[2]
    value = (1, bad) if field in ("a", "b") else bad
    # the bad violation follows a good one with equal values: (1, True) == (1, 1)
    # shares no object with it
    twin = good._replace(**{field: (1, 1) if field in ("a", "b") else 1})
    violations = (twin, good._replace(**{field: value}))
    with pytest.raises(ValueError, match=f"field {field} must"):
        handmade_report(*violations)
    report = handmade_report(twin, good)
    with pytest.raises(ValueError, match=f"field {field} must"):
        report.replace(violations=violations)


@pytest.mark.parametrize("field", ["a", "b"])
def test_reports_refuse_parts_that_are_not_tuples(field):
    # a list of plain ints would leave the report unhashable, and a value
    # appended to it later would be exported
    good = EDGE_VIOLATIONS[2]
    for parts in ([1, 5], range(1, 3), "15"):
        bad = good._replace(**{field: parts})
        with pytest.raises(ValueError, match=f"field {field} must be a tuple"):
            handmade_report(good, bad)
        with pytest.raises(ValueError, match=f"field {field} must be a tuple"):
            handmade_report(good).replace(violations=[bad])


@pytest.mark.parametrize("field", ["pairs_checked", "wall_time_ms"])
@pytest.mark.parametrize("bad", NOT_PLAIN_INTS, ids=repr)
def test_reports_refuse_counts_that_are_not_plain_ints(field, bad):
    header = {"record": "header", **handmade_report().to_dict(), field: bad}
    del header["violations"]
    with pytest.raises(ValueError, match=f"field {field} must"):
        ScanReport.from_records([header])
    with pytest.raises(ValueError, match=f"field {field} must"):
        handmade_report(*EDGE_VIOLATIONS, **{field: bad})


def test_a_record_set_must_start_with_its_header():
    records = to_records(handmade_report(*EDGE_VIOLATIONS[:2]))
    for broken in ([], records[1:], records[::-1]):
        with pytest.raises(ValueError, match="must start with a header record"):
            ScanReport.from_records(broken)


def test_reports_check_their_ints_once_when_built(monkeypatch, tmp_path):
    checked: list[int] = []
    check = ScanReport._check_ints

    def counting(report: ScanReport) -> None:
        checked.append(id(report))
        check(report)

    monkeypatch.setattr(ScanReport, "_check_ints", counting)
    scanned = verify_lemma_inequalities(10, 6, "diff_length")
    reports = [
        scanned,
        handmade_report(*EDGE_VIOLATIONS),
        scanned.replace(wall_time_ms=0),
        ScanReport.from_records(to_records(scanned)),
    ]
    assert checked == [id(report) for report in reports]
    for report in reports:
        exports(report, tmp_path)
    assert len(checked) == len(reports)
