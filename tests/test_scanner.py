"""Scanner: pair counts, determinism, serialization, base-case inequalities."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import json
import operator
from math import comb, prod

import pytest

import hilbprod.partitions as partitions
import hilbprod.scanner as scanner
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
    transfer_fails,
    transfers,
    tuple_counts,
)
from export_oracle import csv_rows, oracle_exports, to_records


def independent_same_length_pairs(n_max: int) -> int:
    total = 0
    for n in range(1, n_max + 1):
        for bucket in partitions_by_length(n).values():
            total += comb(len(bucket), 2)
    return total


def independent_diff_length_pairs(n_max: int) -> int:
    total = 0
    for n in range(1, n_max + 1):
        sizes = [len(bucket) for bucket in partitions_by_length(n).values()]
        all_pairs = comb(sum(sizes), 2)
        same = sum(comb(size, 2) for size in sizes)
        total += all_pairs - same
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


# -- majorization scan ---------------------------------------------------------------


def test_majorization_scan_small():
    report = verify_majorization({3, 4, 5}, 10)
    assert report.violations == ()
    assert report.pairs_checked == independent_same_length_pairs(10)
    assert report.parameter("k_set") == [3, 4, 5]


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
    report = dataclasses.replace(report, wall_time_ms=0)
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


# (which k, x, y): raising c(23) breaks the inequality (7, 23) alone up to
# n = 30; raising c(9) breaks (x, 9) for every x >= 2 and every (9, y)
BROKEN = {"none": None, "one": (min, 7, 23), "many": (max, 2, 9)}


@pytest.mark.parametrize("k_set", [{3}, {4, 5}, {3, 4, 5}], ids=["k3", "k45", "k345"])
@pytest.mark.parametrize("broken", sorted(BROKEN))
def test_per_part_certificate_compares_pairwise_exactly_where_a_transfer_fails(
    monkeypatch, k_set, broken
):
    # the per-part inequalities against the per-partition transfer
    # certificate, on real counts and on counts with inequalities broken
    k_tuple = tuple(sorted(k_set))
    if BROKEN[broken] is not None:
        pick, x, y = BROKEN[broken]
        counts = broken_counts(pick(k_tuple), x, y)
        found = broken_inequalities(counts(pick(k_tuple), 30), 30)
        assert (found == [(7, 23)]) if broken == "one" else (len(found) > 10)
        monkeypatch.setattr(scanner, "_part_counts", counts)
    sent = []
    monkeypatch.setattr(
        scanner, "_majorization_pairs", lambda n, k_tuple: sent.append(n) or (0, [])
    )
    for n in range(1, 31):
        scanner._majorization_bucket(n, k_tuple=k_tuple)
    expected = [n for n in range(1, 31) if transfer_fails(n, k_tuple)]
    assert sent == expected
    assert expected == {"none": [], "one": [30], "many": list(range(11, 31))}[broken]


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


@pytest.mark.parametrize(
    "scan",
    [lambda: verify_majorization({3}, 8), lambda: scan_conjecture({4}, 8)],
    ids=["majorization", "conjecture"],
)
def test_colour_scans_enumerate_through_the_module_global(monkeypatch, scan):
    # a tracer that wraps partitions.enumerate_partitions sees every n once
    calls = []
    original = partitions.enumerate_partitions

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(partitions, "enumerate_partitions", counted)
    scan()
    assert calls == list(range(1, 9))


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


# k = -1 adds classes of up to 21 partitions and pairs that collide at two k
@pytest.mark.parametrize("k_set", [{1, 2}, {1, 2, 3}, {-1, 1, 2}], ids=["k12", "k123", "k-112"])
def test_conjecture_matches_the_exhaustive_oracle(tmp_path, k_set):
    oracle = exhaustive_conjecture(k_set, 14)
    assert len(oracle.violations) >= 72
    assert same_exports(scan_conjecture(k_set, 14), oracle, tmp_path)


# -- determinism and serialization ------------------------------------------------------


def test_reports_are_deterministic_across_runs():
    r1 = verify_lemma_inequalities(7, 2, "same_length")
    r2 = verify_lemma_inequalities(7, 2, "same_length")
    assert r1.fingerprint() == r2.fingerprint()


def test_reports_are_deterministic_across_worker_counts():
    r1 = scan_conjecture({4}, 9, workers=1)
    r2 = scan_conjecture({4}, 9, workers=2)
    assert r1.fingerprint() == r2.fingerprint()
    m1 = verify_majorization({3}, 9, workers=1)
    m2 = verify_majorization({3}, 9, workers=3)
    assert m1.fingerprint() == m2.fingerprint()
    for mode in ("diff_length", "same_length"):
        l1 = verify_lemma_inequalities(9, 6, mode, workers=1)
        l2 = verify_lemma_inequalities(9, 6, mode, workers=2)
        assert l1.fingerprint() == l2.fingerprint()


def test_scans_refuse_fewer_than_one_worker():
    for workers in (0, -3):
        with pytest.raises(UsageError):
            verify_majorization({3}, 6, workers=workers)


SIZED_SCANS = {
    "lemma": lambda n_max=6, p_max=2, workers=1: verify_lemma_inequalities(
        n_max, p_max, "same_length", workers=workers
    ),
    "majorization": lambda n_max=6, workers=1: verify_majorization({3}, n_max, workers=workers),
    "conjecture": lambda n_max=6, workers=1: scan_conjecture({4}, n_max, workers=workers),
}


@pytest.mark.parametrize(
    "scan, size",
    [(scan, size) for scan in SIZED_SCANS for size in ("n_max", "p_max", "workers")
     if scan == "lemma" or size != "p_max"],
)
@pytest.mark.parametrize("bad", [True, False, 6.0, 2.5], ids=repr)
def test_scans_refuse_sizes_that_are_not_plain_ints(scan, size, bad):
    # a bool would be recorded as true in the report's parameters
    with pytest.raises(UsageError, match=f"{size} must be a plain int"):
        SIZED_SCANS[scan](**{size: bad})


def test_worker_count_is_clamped(monkeypatch):
    # pure arithmetic: no pool is started here, whatever the request
    monkeypatch.setattr(scanner.os, "cpu_count", lambda: 2)
    tasks = [("lemma", n, 6, "diff_length") for n in range(1, 5)]
    assert scanner._clamp_workers(10**6, tasks) == 2
    assert scanner._clamp_workers(10**6, tasks[:1]) == 1
    assert scanner._clamp_workers(3, tasks) == 2
    assert scanner._clamp_workers(1, tasks) == 1
    assert scanner._clamp_workers(0, tasks) == 0
    monkeypatch.setattr(scanner.os, "cpu_count", lambda: None)
    assert scanner._clamp_workers(10**6, tasks) == 1
    monkeypatch.setattr(scanner.os, "cpu_count", lambda: 64)
    assert scanner._clamp_workers(10**6, tasks) == len(tasks)


def test_scans_apply_the_worker_clamp(monkeypatch):
    # with one CPU a huge request runs serially: starting a pool is an error
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(scanner.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(scanner, "ProcessPoolExecutor", no_pool)
    report = verify_majorization({3}, 9, workers=10**6)
    assert report.fingerprint() == verify_majorization({3}, 9).fingerprint()


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
}


@pytest.mark.parametrize("name", sorted(PINNED_EXPORTS))
def test_exports_are_pinned(tmp_path, name):
    scan, *expected = PINNED_EXPORTS[name]
    report = dataclasses.replace(scan(), wall_time_ms=0)
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


@pytest.mark.parametrize("mode", ["diff_length", "same_length"])
def test_lemma_exports_match_the_dict_oracles(tmp_path, mode):
    report = verify_lemma_inequalities(12, 6, mode)
    assert len(report.violations) > 100
    assert exports(report, tmp_path) == oracle_exports(report, tmp_path)
    # loaded back, no two violations share a parts tuple or a form object
    loaded = ScanReport.from_records(to_records(report))
    assert exports(loaded, tmp_path) == oracle_exports(report, tmp_path)


@pytest.mark.parametrize(
    "report",
    [
        handmade_report(),
        handmade_report(*EDGE_VIOLATIONS),
        handmade_report(*EDGE_VIOLATIONS[:2], scan_kind="lemma_diff_length",
                        parameters=(("n_max", 5), ("p_max", 6))),
    ],
    ids=["empty", "edge-cases", "lemma-parameters"],
)
def test_handmade_exports_match_the_dict_oracles(tmp_path, report):
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
        dataclasses.replace(report, violations=violations)


@pytest.mark.parametrize("field", ["pairs_checked", "wall_time_ms"])
@pytest.mark.parametrize("bad", NOT_PLAIN_INTS, ids=repr)
def test_reports_refuse_counts_that_are_not_plain_ints(field, bad):
    header = {"record": "header", **handmade_report().to_dict(), field: bad}
    del header["violations"]
    with pytest.raises(ValueError, match=f"field {field} must"):
        ScanReport.from_records([header])
    with pytest.raises(ValueError, match=f"field {field} must"):
        handmade_report(*EDGE_VIOLATIONS, **{field: bad})


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
        dataclasses.replace(scanned, wall_time_ms=0),
        ScanReport.from_records(to_records(scanned)),
    ]
    assert checked == [id(report) for report in reports]
    for report in reports:
        exports(report, tmp_path)
    assert len(checked) == len(reports)
