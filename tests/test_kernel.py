"""The log-derivative Goettsche kernel: oracle equality, specializations, growth."""

from __future__ import annotations

import hashlib
import random

import pytest

import hilbprod.series as series
from hilbprod.errors import DataError, UsageError
from hilbprod.invariants import (
    euler_series,
    hodge_p0,
    hodge_p0_series,
    hodge_polynomial_full,
    poincare_polynomial_tuple,
    poincare_series,
    surface_diamond,
)
from hilbprod.partitions import Partition, colored_count, colored_count_tuple
from hilbprod.scanner import scan_conjecture, verify_majorization
from hilbprod.series import Exponent
from hilbprod.surfaces import SurfaceInvariants, load_catalog
from conftest import fresh_tables, race, synthetic
from product_oracle import (
    euler_product,
    hodge_p0_product,
    hodge_product,
    poincare_product,
    term_map,
)

CATALOG = load_catalog().representatives()
HODGE_SURFACES = [s for s in CATALOG if s.h10 is not None and s.h20 is not None]
ABELIAN_DIAMOND = tuple(
    surface_diamond(next(s for s in CATALOG if s.name == "abelian")).entries()
)


def all_rows(registries: list[dict]) -> list[dict]:
    return [{key: t.rows for key, t in registry.items()} for registry in registries]


# -- kernel against the direct expansion ----------------------------------------


@pytest.mark.parametrize(
    "b0, b1, b2",
    [(1, 0, 22), (1, 4, 6), (1, 2, 2), (1, 0, 0), (2, 0, 4), (3, 2, 5), (4, 1, 0)]
    + [(2, 1, 0), (3, 0, 1), (2, 2, 6), (3, 4, 2)]
    # b1 < 0: row 1 has the coefficient b1 at z, so the rows have negative slots
    + [(1, -3, 2), (0, -3, 6), (2, -1, -2), (1, -4, 53)],
)
def test_betti_kernel_matches_oracle(b0, b1, b2):
    # most of these numbers belong to no valid surface, so the table is read directly
    table = series.betti_table(b0, b1, b2)
    assert term_map(table.series(6)) == poincare_product(b0, b1, b2, 6)
    for cap in (0, 2, 5):
        capped = table.series(6, cap=cap)
        assert term_map(capped) == poincare_product(b0, b1, b2, 6, cap)


@pytest.mark.parametrize("chi", [-6, -4, -1, 0, 1, 2, 3, 12, 24])
def test_euler_kernel_matches_oracle(chi):
    assert term_map(euler_series(chi, 14)) == euler_product(chi, 14)


@pytest.mark.parametrize("s", HODGE_SURFACES, ids=lambda s: s.name)
def test_hodge_kernel_matches_oracle(s):
    # rows 1..6 are read from the tables at strides L = 4, 8 and 16, and
    # they run at more than one slot width
    diamond = surface_diamond(s)
    product = hodge_product(diamond.entries(), 6)
    for n in range(1, 7):
        expected = {aux: c for (t_deg, aux), c in product.items() if t_deg == n}
        got = hodge_polynomial_full(diamond, n)
        assert {(p, q): v for p, q, v in got.entries()} == expected


@pytest.mark.parametrize("h10, h20", [(0, 0), (0, 1), (1, 0), (2, 1), (4, 6)])
def test_hodge_p0_table_matches_oracle(h10, h20):
    assert term_map(hodge_p0_series(h10, h20, 9)) == hodge_p0_product(h10, h20, 9)


def divisor_sum_counts(k: int, n_max: int) -> list[int]:
    """Coefficients of ``prod_m (1 - t^m)^-k`` from ``n a_n = k sum_j sigma(j) a_{n-j}``."""
    sigma = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        for multiple in range(d, n_max + 1, d):
            sigma[multiple] += d
    a = [1]
    for n in range(1, n_max + 1):
        total = k * sum(sigma[j] * a[n - j] for j in range(1, n + 1))
        assert total % n == 0
        a.append(total // n)
    return a


@pytest.mark.parametrize("k", [-30, -4, -2, -1, 0, 1, 2, 3, 12, 24, 30, 55, 60])
def test_euler_rows_match_divisor_sum_recurrence(monkeypatch, k):
    fresh_tables(monkeypatch)
    expected = divisor_sum_counts(k, 300)
    assert [colored_count(k, n) for n in range(301)] == expected
    fresh_tables(monkeypatch)  # the series grows its own table from row 0
    assert term_map(euler_series(k, 300)) == {(n, ()): c for n, c in enumerate(expected) if c}


def pentagonal_terms(n_max: int) -> dict[int, int]:
    """The nonzero coefficients of ``prod_m (1 - t^m)`` up to degree n_max, expanded."""
    f = [1] + [0] * n_max
    for m in range(1, n_max + 1):
        for d in range(n_max, m - 1, -1):
            f[d] -= f[d - m]
    return {i: c for i, c in enumerate(f) if c and i}


def test_euler_tables_read_neither_the_kernel_nor_the_divisor_sieve(monkeypatch):
    def refuse(*args):
        raise AssertionError("an Euler row called _log_derivative")

    fresh_tables(monkeypatch)
    divisors: list[list[int]] = [[]]
    pentagonal: list[tuple[int, int]] = []
    monkeypatch.setattr(series, "_DIVISORS", divisors)
    monkeypatch.setattr(series, "_PENTAGONAL", pentagonal)
    monkeypatch.setattr(series, "_log_derivative", refuse)
    for chi in (-30, 0, 1, 24, 60):
        assert len(series.euler_table(chi).rows_upto(300)) == 301
    assert divisors == [[]]
    # the shared list holds the pentagonal theorem's terms, in ascending order
    assert pentagonal[-1][0] > 300
    assert dict(p for p in pentagonal if p[0] <= 300) == pentagonal_terms(300)
    assert pentagonal == sorted(pentagonal)


def test_threads_grow_a_fresh_euler_table_alike(monkeypatch):
    fresh_tables(monkeypatch)
    pentagonal: list[tuple[int, int]] = []
    monkeypatch.setattr(series, "_PENTAGONAL", pentagonal)
    orders = [list(range(301)) for _ in range(4)]
    for i, order in enumerate(orders[1:]):
        random.Random(i).shuffle(order)
    seen: list[dict[int, int]] = [{} for _ in orders]
    race(lambda i: seen[i].update((n, colored_count(24, n)) for n in orders[i]))
    assert all(got == seen[0] for got in seen)
    assert [seen[0][n] for n in range(301)] == divisor_sum_counts(24, 300)
    assert dict(p for p in pentagonal if p[0] <= 300) == pentagonal_terms(300)


def trial_division_log_derivative(factors, k: int) -> dict[int, int]:
    """``G_k = sum_{m r = k} m e (-1)^{r+1} sign^r z^{r (slope m + offset)}``.

    The divisors m of k are found by trial division, one at a time.
    """
    terms: dict[int, int] = {}
    for m in range(1, k + 1):
        if k % m == 0:
            r = k // m
            for sign, e, slope, offset in factors:
                deg = r * (slope * m + offset)
                terms[deg] = terms.get(deg, 0) + m * e * (-1) ** (r + 1) * sign**r
    return {deg: c for deg, c in terms.items() if c}


def test_log_derivative_reads_the_shared_divisor_table(monkeypatch):
    monkeypatch.setattr(series, "_DIVISORS", [[]])
    # b1 < 0 gives factors with sign +1 and e < 0 next to sign -1 and e < 0
    for factors in (series._betti_factors(1, -3, 2), series._hodge_factors(ABELIAN_DIAMOND, 32)):
        for k in range(1, 301):
            got = series._log_derivative(factors, k)
            assert dict(got) == trial_division_log_derivative(factors, k)
            assert got == sorted(got)


def test_threads_grow_a_fresh_divisor_table_alike(monkeypatch):
    fresh: list[list[int]] = [[]]
    monkeypatch.setattr(series, "_DIVISORS", fresh)
    orders = [list(range(1, 301)) for _ in range(4)]
    for i, order in enumerate(orders[1:]):
        random.Random(i).shuffle(order)
    seen: list[dict[int, list[int]]] = [{} for _ in orders]
    race(lambda i: seen[i].update((k, series._divisors(k)) for k in orders[i]))
    assert all(got == seen[0] for got in seen)
    assert fresh[0] == []
    for k, divisors in enumerate(fresh[1:], start=1):
        assert divisors == [m for m in range(1, k + 1) if k % m == 0], k


def row_terms(table, truncation: int, cap: int | None = None) -> dict:
    """The nonzero coefficients of rows 0..truncation as a term map."""
    return {
        (n, (j,)[:table.aux_count]): c
        for n in range(truncation + 1)
        for j, c in enumerate(table.rows_upto(n)[n])
        if c and (cap is None or j <= cap)
    }


def assert_series_of(built, table, truncation: int, cap: int | None = None) -> None:
    """``built`` holds the rows' terms, in lines without trailing zeros."""
    assert (built.truncation, built.aux_count) == (truncation, table.aux_count)
    assert term_map(built) == row_terms(table, truncation, cap)
    assert len(built) == len(term_map(built))
    assert all(not line or line[-1] for line in built._lines)


@pytest.mark.parametrize("truncation", [1, 2, 7, 24])
def test_series_match_the_row_terms(truncation):
    for chi in (-3, 0, 1, 24):
        assert_series_of(euler_series(chi, truncation), series.euler_table(chi), truncation)
    for s in CATALOG:
        table = series.betti_table(s.b0, s.b1, s.b2)
        for cap in (None, 0, 3):
            built = poincare_series(s, truncation, z_cap=cap)
            assert_series_of(built, table, truncation, cap)
    for s in HODGE_SURFACES:
        built = hodge_p0_series(s.h10, s.h20, truncation)
        assert_series_of(built, series.hodge_p0_table(s.h10, s.h20), truncation)


# -- the evaluation kernel: signed slots, slot width and stride growth -------------


def slot_width(majorant: int, n: int) -> int:
    """The kernel's slot width in bytes at row n: ``2 n colored_count(E, n) < 2^(8w)``."""
    bound = 2 * n * colored_count(majorant, n)
    w = 1
    while bound.bit_length() > 8 * w:
        w *= 2
    return w


def betti_majorant(b0: int, b1: int, b2: int) -> int:
    return 2 * abs(b0) + 2 * abs(b1) + abs(b2)


@pytest.mark.parametrize("b0, b1, b2, truncation", [(1, 0, 53, 18), (1, -4, 53, 17)])
def test_wide_betti_rows_match_oracle(b0, b1, b2, truncation):
    # the last row is the first with 16-byte slots, which are read back by
    # slicing instead of a cast; rows of b1 < 0 have negative slots
    assert slot_width(betti_majorant(b0, b1, b2), truncation) == 16
    assert slot_width(betti_majorant(b0, b1, b2), truncation - 1) == 8
    table = series.betti_table(b0, b1, b2)
    assert row_terms(table, truncation) == poincare_product(b0, b1, b2, truncation)


def _kernel_requests(requests) -> None:
    for kind, n in requests:
        if kind == "betti":
            series.betti_table(1, 0, 53).rows_upto(n)
        elif kind == "hodge":
            series.hodge_table(ABELIAN_DIAMOND, 32).rows_upto(n)
        else:  # the majorant table of (1, 0, 53), grown from outside the kernel
            colored_count(55, n)


def test_shuffled_kernel_growth_matches_one_ascending_build(monkeypatch):
    requests = [("betti", n) for n in range(1, 21)] + [("hodge", n) for n in range(1, 9)]
    requests += [("colour", n) for n in (3, 9, 19, 30)]
    # the Betti rows cross widths 1 to 16
    assert {slot_width(55, n) for kind, n in requests if kind == "betti"} == {1, 2, 4, 8, 16}
    random.Random(12).shuffle(requests)
    registries = fresh_tables(monkeypatch)
    _kernel_requests(requests)
    shuffled = all_rows(registries)
    registries = fresh_tables(monkeypatch)
    _kernel_requests(sorted(requests, key=lambda request: request[1]))
    assert all_rows(registries) == shuffled
    assert len(registries[0][(1, 0, 53)].rows) == 21


def test_threads_share_a_fresh_table_across_width_changes(monkeypatch):
    registries = fresh_tables(monkeypatch)
    _kernel_requests([("betti", 20), ("hodge", 8)])
    expected = all_rows(registries)
    registries = fresh_tables(monkeypatch)
    orders = []
    for i in range(4):
        order = [("betti", n) for n in range(1, 21)] + [("hodge", n) for n in range(1, 9)]
        random.Random(i).shuffle(order)
        orders.append(order)
    race(lambda i: _kernel_requests(orders[i]))
    assert all_rows(registries) == expected


# the representatives whose Hodge rows the digests below were recorded for;
# the other families and quintic gained h20 later
PINNED_HODGE_SURFACES = [
    s for s in HODGE_SURFACES
    if s.name in {"del_pezzo", "hirzebruch", "rational_elliptic", "k3", "enriques",
                  "abelian", "bielliptic"}
]


# sha256 of the repr of Betti rows 0..40 of every catalog representative plus
# (2, 0, 4) and (3, 2, 5), then Hodge-diamond rows 0..10 of every pinned
# representative with Hodge data, recorded with the list-of-lists kernel: a
# Betti row as ``[line]``, Hodge row n as its 2n + 1 lines of y-degrees
# 0..2n, one per x-degree.  The flat rows are wrapped back into that shape,
# so any change to a coefficient, or to a row's length, shows here
PINNED_ROWS = "168b2f0b6e9c040d2dcfdac0cb74813afbe035c37ce5723a63358dd62650d17a"


def test_rows_are_pinned():
    digest = hashlib.sha256()
    for b0, b1, b2 in [(s.b0, s.b1, s.b2) for s in CATALOG] + [(2, 0, 4), (3, 2, 5)]:
        rows = series.betti_table(b0, b1, b2).rows_upto(40)[:41]
        digest.update(repr([[line] for line in rows]).encode())
    for s in PINNED_HODGE_SURFACES:
        rows = series.hodge_table(tuple(surface_diamond(s).entries()), 32).rows_upto(10)
        digest.update(repr([
            [line[i * 32:i * 32 + 2 * n + 1] for i in range(2 * n + 1)]
            for n, line in enumerate(rows[:11])
        ]).encode())
    assert digest.hexdigest() == PINNED_ROWS


# sha256 of the repr of the sorted ``{(surface, n): hodge_polynomial_full
# entries}`` of every pinned representative with Hodge data, n = 1..12:
# the public Hodge output, whatever the layout of the rows behind it
PINNED_HODGE = "1ae2eb5b001fffb1c8babcad5e01b1579711ee14922921e604b63305f7e745fa"


def test_hodge_diamonds_are_pinned(monkeypatch):
    requests = [(s, n) for s in PINNED_HODGE_SURFACES for n in range(1, 13)]
    random.Random(3).shuffle(requests)
    fresh_tables(monkeypatch)
    diamonds = {
        (s.name, n): hodge_polynomial_full(surface_diamond(s), n).entries() for s, n in requests
    }
    digest = hashlib.sha256(repr(sorted(diamonds.items())).encode())
    assert digest.hexdigest() == PINNED_HODGE


def diamond_at_stride(diamond, n: int, stride: int) -> dict[tuple[int, int], int]:
    """Row n of the Hodge table at ``stride`` read as ``h^{i,j}``, i, j <= 2n."""
    line = series.hodge_table(diamond, stride).rows_upto(n)[n]
    window = {
        (i, j): line[i * stride + j] for i in range(2 * n + 1) for j in range(2 * n + 1)
    }
    # no coefficient lies outside the window that is read
    assert sum(map(bool, line)) == sum(map(bool, window.values()))
    return {key: c for key, c in window.items() if c}


@pytest.mark.parametrize("s", HODGE_SURFACES, ids=lambda s: s.name)
def test_the_stride_never_changes_a_number(s):
    diamond = tuple(surface_diamond(s).entries())
    for n in range(1, 8):
        expected = diamond_at_stride(diamond, n, 16)
        assert diamond_at_stride(diamond, n, 32) == expected, n
        assert diamond_at_stride(diamond, n, 64) == expected, n


def test_diamonds_across_stride_boundaries_match_oracle(monkeypatch):
    # n = 7, 8, 15, 16 read from the tables at strides 16, 32, 32 and 64
    hodge_tables = fresh_tables(monkeypatch)[3]
    order = [7, 8, 15, 16]
    random.Random(4).shuffle(order)
    diamond = surface_diamond(next(s for s in CATALOG if s.name == "abelian"))
    got = {n: hodge_polynomial_full(diamond, n) for n in order}
    assert sorted(stride for _, stride in hodge_tables) == [16, 32, 64]
    product = hodge_product(diamond.entries(), 16)
    for n in order:
        expected = {aux: c for (t_deg, aux), c in product.items() if t_deg == n}
        assert {(p, q): v for p, q, v in got[n].entries()} == expected, n


# -- specialization identities ---------------------------------------------------


@pytest.mark.parametrize("s", CATALOG, ids=lambda s: s.name)
def test_betti_rows_at_z_minus_one_are_coloured_counts(s):
    betti = poincare_series(s, 30)
    rows: dict[int, int] = {}
    for e, c in betti.terms():
        rows[e.t_deg] = rows.get(e.t_deg, 0) + (-1) ** e.aux_degs[0] * c
    for n in range(31):
        assert rows.get(n, 0) == colored_count(s.chi, n), (s.name, n)


@pytest.mark.parametrize("s", HODGE_SURFACES, ids=lambda s: s.name)
def test_hodge_diamond_at_y_zero_is_hodge_p0(s):
    diamond = surface_diamond(s)
    for n in range(1, 9):
        full = hodge_polynomial_full(diamond, n)
        assert [full.h(p, 0) for p in range(2 * n + 1)] == [
            hodge_p0(s, n, p) for p in range(2 * n + 1)
        ]


# -- grow-only tables ------------------------------------------------------------


def _outputs(order, s, diamond):
    out = {}
    for n in order:
        out[n] = (
            poincare_series(s, n),
            euler_series(s.chi, n),
            colored_count(s.chi, n),
            hodge_p0_series(s.h10, s.h20, n),
            hodge_polynomial_full(diamond, n).entries(),
            poincare_series(s, n, z_cap=3),
        )
    return out


def test_shuffled_truncations_match_one_ascending_build(monkeypatch):
    s = next(s for s in CATALOG if s.name == "abelian")
    diamond = surface_diamond(s)
    order = list(range(1, 13))
    random.Random(5).shuffle(order)
    registries = fresh_tables(monkeypatch)
    shuffled = _outputs(order, s, diamond)
    shuffled_rows = all_rows(registries)
    registries = fresh_tables(monkeypatch)
    ascending = _outputs(range(1, 13), s, diamond)
    assert shuffled == ascending
    assert all_rows(registries) == shuffled_rows


def test_tables_only_grow(monkeypatch):
    fresh_tables(monkeypatch)
    s = synthetic(2, 2, 3)
    table = series.betti_table(s.b0, s.b1, s.b2)
    assert series.betti_table(s.b0, s.b1, s.b2) is table
    first = poincare_series(s, 10)
    early_rows = list(table.rows)
    assert len(early_rows) == 11
    poincare_series(s, 4)  # a smaller request reads the table, never rebuilds it
    assert len(table.rows) == 11
    poincare_series(s, 16)  # a larger one appends rows and keeps the old ones
    assert len(table.rows) == 17
    assert all(old is new for old, new in zip(early_rows, table.rows))
    longer = poincare_series(s, 16)
    for e, c in first.terms():
        assert longer.coeff(Exponent(e.t_deg, e.aux_degs)) == c


# -- keys that are not plain ints ------------------------------------------------
#
# 3.0 == 3 and True == 1 hash alike, so a table made for such a key would
# answer the int key with float or bool rows for the rest of the process.


def test_a_float_or_bool_k_fills_no_euler_table(monkeypatch):
    registries = fresh_tables(monkeypatch)
    for k in (3.0, True):
        with pytest.raises(UsageError):
            colored_count(k, 10)
        with pytest.raises(UsageError):
            series.euler_table(k)
    assert registries[1] == {}
    assert colored_count(3, 10) == 2640
    assert type(colored_count(3, 10)) is int


def test_a_float_or_bool_argument_is_refused_by_a_warm_table(monkeypatch):
    fresh_tables(monkeypatch)
    a = Partition((2, 3))
    k3 = next(s for s in CATALOG if s.name == "k3")
    poincare_series(k3, 3, z_cap=1)
    assert (colored_count(1, 5), colored_count_tuple(1, a)) == (7, 6)
    euler_series(3, 4)
    hodge_p0_series(2, 1, 4)
    refused = [
        (colored_count, (True, 5)), (colored_count, (1.0, 5)),
        (colored_count, (3, True)), (colored_count, (3, 2.0)),
        (colored_count_tuple, (1.0, a)), (colored_count_tuple, (True, a)),
        (euler_series, (3.0, 4)), (euler_series, (3, True)), (euler_series, (3, 4.0)),
        (hodge_p0_series, (2.0, 1, 4)), (hodge_p0_series, (2, True, 4)),
        (hodge_p0_series, (2, 1, True)),
        (poincare_series, (k3, True)),
    ]
    for call, args in refused:
        with pytest.raises(UsageError, match="plain int"):
            call(*args)
    for z_cap in (True, 2.0):
        with pytest.raises(UsageError, match="plain int"):
            poincare_series(k3, 3, z_cap=z_cap)


def test_the_table_functions_check_their_keys_on_every_call(monkeypatch):
    registries = fresh_tables(monkeypatch)
    series.euler_table(3)
    series.euler_rows(3, 5)
    series.betti_table(1, 0, 22)
    series.hodge_p0_table(2, 1)
    series.hodge_table(ABELIAN_DIAMOND, 32)
    warm = [dict(registry) for registry in registries]
    float_diamond = (ABELIAN_DIAMOND[0][:2] + (1.0,),) + ABELIAN_DIAMOND[1:]
    refused = [
        (series.euler_table, (3.0,)), (series.euler_table, (True,)),
        (series.euler_rows, (3.0, 5)), (series.euler_rows, (True, 5)),
        (series.euler_rows, (3, 5.0)), (series.euler_rows, (3, True)),
        (series.betti_table, (1.0, 0, 22)), (series.betti_table, (1, False, 22)),
        (series.betti_table, (1, 0, 22.0)),
        (series.hodge_p0_table, (2.0, 1)), (series.hodge_p0_table, (2, True)),
        (series.hodge_table, (ABELIAN_DIAMOND, 32.0)),
        (series.hodge_table, (float_diamond, 32)),
    ]
    for call, args in refused:
        with pytest.raises(UsageError, match="plain int"):
            call(*args)
    assert registries == warm


def test_a_colour_scan_refuses_a_k_that_is_not_a_plain_int(monkeypatch):
    registries = fresh_tables(monkeypatch)
    for k_set in ({4.0}, {4, 5.0}, {True, 4}, {"4"}):
        with pytest.raises(UsageError, match="plain ints"):
            scan_conjecture(k_set, 6)
        with pytest.raises(UsageError, match="plain ints"):
            verify_majorization(k_set, 6)
    assert registries[1] == {}
    assert scan_conjecture({4}, 6).parameter("k_set") == [4]


def test_a_surface_with_float_numbers_is_flagged_and_fills_no_table(monkeypatch):
    k3 = next(s for s in CATALOG if s.name == "k3")
    a = Partition((1, 2))
    fresh_tables(monkeypatch)
    expected = poincare_polynomial_tuple(k3, a)
    registries = fresh_tables(monkeypatch)
    with pytest.raises(DataError) as excinfo:
        SurfaceInvariants("x", 1, 0, 22.0, 24.0, 0, 1)
    assert str(excinfo.value) == (
        "surface 'x' fails validation: b2 must be a plain int, got 22.0; "
        "chi must be a plain int, got 24.0"
    )
    with pytest.raises(UsageError):
        series.betti_table(1, 0, 22.0)
    assert registries[0] == {}
    assert poincare_polynomial_tuple(k3, a) == expected
    assert {type(c) for row in registries[0][(1, 0, 22)].rows for c in row} == {int}
