"""Generating-function invariants: closed forms, Kuenneth products, Hodge data."""

from __future__ import annotations

import itertools
from math import comb, prod

import pytest

from hilbprod import invariants
from hilbprod.decision import Outcome, Witness, decide
from hilbprod.errors import DataError, UsageError
from hilbprod.invariants import (
    HodgeDiamond,
    PoincarePolynomial,
    betti_closed,
    euler_char_tuple,
    euler_series,
    has_hodge_data,
    hodge_p0,
    hodge_p0_series,
    hodge_p0_tuple_vector,
    hodge_polynomial_full,
    poincare_polynomial_tuple,
    poincare_series,
    surface_diamond,
)
from hilbprod.partitions import Partition, colored_count, colored_count_tuple, enumerate_partitions
from hilbprod.series import Exponent, GrowOnlyTable, betti_table, euler_table, hodge_p0_table
from hilbprod.surfaces import SurfaceInvariants, catalog_lookup, load_catalog
from conftest import fresh_tables, race, synthetic, valid_only
from product_oracle import dense_kuenneth, poincare_product

K3 = catalog_lookup("k3")
ABELIAN = catalog_lookup("abelian")
ENRIQUES = catalog_lookup("enriques")
QUINTIC = catalog_lookup("quintic")


def hodge_p0_by_double_binomial(h10: int, h20: int, n: int, p: int) -> int:
    """Independent oracle: sum over t1 + 2*t2 = p with t1 + t2 <= n of
    C(h10, t1) * C(h20 + t2 - 1, t2); the geometric factor soaks the rest."""
    total = 0
    for t2 in range(p // 2 + 1):
        t1 = p - 2 * t2
        if t1 + t2 <= n:
            multichoose = 1 if t2 == 0 else comb(h20 + t2 - 1, t2)
            total += comb(h10, t1) * multichoose
    return total


# -- Poincare series and closed forms -------------------------------------------


def test_poincare_series_k3_low_degrees():
    series = poincare_series(K3, 3)
    assert series.coeff(Exponent(2, (2,))) == 23
    assert series.coeff(Exponent(1, (2,))) == 22
    assert series.coeff(Exponent(3, (0,))) == 1
    assert poincare_polynomial_tuple(K3, Partition((2,))).betti(2) == 23
    assert poincare_polynomial_tuple(K3, Partition((2,))).betti(4) == 276



def test_the_poincare_polynomial_of_k3_2_has_degree_8():
    # real dimension 8: betti(8) is the top class, 9 and -1 are out of range
    poly = poincare_polynomial_tuple(K3, Partition((2,)))
    assert poly.degree == 8 and poly.betti(8) == 1
    for i in (9, -1):
        with pytest.raises(UsageError, match=rf"degree {i} out of range 0\.\.8"):
            poly.betti(i)

def test_poincare_series_disconnected_b0():
    s = synthetic(2, 0, 2)
    assert poincare_series(s, 3).coeff(Exponent(3, (0,))) == comb(4, 1) == 4


def test_poincare_series_abelian_b1_stable():
    series = poincare_series(ABELIAN, 6)
    for n in range(1, 7):
        assert series.coeff(Exponent(n, (1,))) == 4


def test_betti_closed_examples():
    assert betti_closed(synthetic(3, 0, 3), 2, 0) == comb(4, 2) == 6
    for n in (1, 3, 7):
        assert betti_closed(synthetic(1, 4, 8), n, 1) == 4
    assert betti_closed(K3, 1, 2) == 22
    assert betti_closed(K3, 5, 2) == 23
    assert betti_closed(ABELIAN, 3, 2) is None  # b1 != 0: no closed form


def test_betti_closed_vs_series_oracle():
    # degrees 0..2 of the full series: the closed forms, and the direct
    # expansion cut at z^2
    surfaces = load_catalog().representatives()
    for s in surfaces:
        lines = poincare_series(s, 20).lines
        low = {(n, (j,)): c for n, line in enumerate(lines) for j, c in enumerate(line[:3]) if c}
        assert low == poincare_product(s.b0, s.b1, s.b2, 20, 2), s.name
        for n in range(1, 21):
            b0, b1, b2 = lines[n][:3]
            assert b0 == betti_closed(s, n, 0), s.name
            assert b1 == betti_closed(s, n, 1), s.name
            expected_b2 = betti_closed(s, n, 2)
            if expected_b2 is not None:
                assert b2 == expected_b2, s.name


# -- Poincare polynomials of products --------------------------------------------


def test_k3_pair_fixture():
    poly = poincare_polynomial_tuple(K3, Partition((2,)))
    assert poly.coefficients == (1, 0, 23, 0, 276, 0, 23, 0, 1)
    assert sum(poly.coefficients) == 324
    assert poly.euler_characteristic() == 324


def test_k3_two_copies_b2():
    poly = poincare_polynomial_tuple(K3, Partition((1, 1)))
    assert poly.betti(2) == 44


def test_single_part_is_the_surface():
    for s in (K3, ABELIAN, ENRIQUES):
        poly = poincare_polynomial_tuple(s, Partition((1,)))
        assert poly.coefficients == (1, s.b1, s.b2, s.b1, 1)


def test_tuple_length_and_guard():
    poly = poincare_polynomial_tuple(ENRIQUES, Partition((1, 2, 3)))
    assert len(poly.coefficients) == 4 * 6 + 1


def test_negative_betti_data_is_a_data_error():
    # b1 < 0 fails validation; its Betti rows have negative coefficients, which
    # no byte slot of the Kuenneth product holds
    with pytest.raises(DataError, match="b1 must be nonnegative"):
        synthetic(1, -3, 2)
    with pytest.raises(DataError):
        betti_table(1, -3, 2).product((1, 2))


K3_POLY = PoincarePolynomial((1, 0, 22, 0, 1))


@pytest.mark.parametrize(
    "call, args",
    [
        (betti_closed, (ABELIAN, True, 1)),
        (betti_closed, (ABELIAN, 1.5, 1)),
        (betti_closed, (ABELIAN, 2, 1.0)),
        (betti_closed, (ABELIAN, 2, False)),
        (hodge_p0, (ABELIAN, 2.0, 0)),
        (hodge_p0, (ABELIAN, 2, True)),
        (hodge_polynomial_full, (surface_diamond(ABELIAN), 1.5)),
        (hodge_polynomial_full, (surface_diamond(ABELIAN), True)),
        (K3_POLY.betti, (True,)),
        (K3_POLY.betti, (2.0,)),
    ],
    ids=lambda x: x.__name__ if callable(x) else ",".join(
        [repr(a) for a in x if isinstance(a, (int, float))]
    ),
)
def test_the_invariant_getters_refuse_floats_and_bools(call, args):
    # True == 1 and 2.0 == 2 used to answer as the int, 1.5 to fail deep inside
    with pytest.raises(UsageError, match="plain int"):
        call(*args)


def test_alternating_sum_matches_euler_identity():
    # duality on each component gives chi = 2*b0 - 2*b1 + b2, which makes the
    # chi-coloured count the z = -1 value of the Betti product, b0 > 1 included
    grid = valid_only(itertools.product((1, 2, 3), (0, 2, 4, 6), (1, 2, 5)))
    assert len(grid) == 24
    surfaces = load_catalog().representatives() + grid
    partitions = [p for n in range(1, 9) for p in enumerate_partitions(n)]
    for s in surfaces:
        for a in partitions:
            poly = poincare_polynomial_tuple(s, a)
            assert poly.euler_characteristic() == euler_char_tuple(s, a), (s.name, a)


def test_palindromic_poincare_polynomials():
    for s in load_catalog().representatives():
        if s.b0 != 1:
            continue
        for n in range(1, 7):
            for a in enumerate_partitions(n):
                assert poincare_polynomial_tuple(s, a).is_palindromic(), (s.name, a)


def test_poincare_polynomial_type_validation():
    with pytest.raises(ValueError):
        PoincarePolynomial((0, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        PoincarePolynomial((1, 2, 3))


# -- h^(p,0) ---------------------------------------------------------------------


def test_hodge_p0_k3_examples():
    for n in range(1, 6):
        assert hodge_p0(K3, n, 2) == 1
        assert hodge_p0(K3, n, 1) == 0


def test_hodge_p0_abelian_surface_itself():
    assert hodge_p0(ABELIAN, 1, 1) == 2


def test_hodge_p0_against_double_binomial_oracle():
    for h10, h20 in itertools.product(range(5), range(3)):
        s = synthetic(1, 2 * h10, max(2 * h20, 1) + 2, h10=h10, h20=h20)
        for n in range(1, 7):
            for p in range(2 * n + 1):
                assert hodge_p0(s, n, p) == hodge_p0_by_double_binomial(
                    h10, h20, n, p
                ), (h10, h20, n, p)


def test_hodge_p0_stability():
    # h^(p,0) does not depend on n once n >= p, on every surface with
    # Hodge data, for p <= n <= m <= 10
    hodge_capable = [
        s for s in load_catalog().representatives()
        if s.h10 is not None and s.h20 is not None
    ]
    assert len(hodge_capable) >= 6
    for s in hodge_capable:
        for p in range(0, 11):
            values = {hodge_p0(s, n, p) for n in range(max(p, 1), 11)}
            assert len(values) == 1, (s.name, p)


def test_hodge_p0_refusals():
    with pytest.raises(DataError):
        hodge_p0(catalog_lookup("quintic").replace(h20=None), 2, 1)  # no h20
    with pytest.raises(DataError):
        hodge_p0(synthetic(2, 0, 2), 2, 1)  # disconnected
    with pytest.raises(UsageError):
        hodge_p0(K3, 2, 5)  # p > 2n


def test_hodge_p0_series_refuses_negative_hodge_numbers():
    # h10 = -1 used to give 1 + t + t^2 + t^3, h20 = -2 a bare ValueError
    for h10, h20 in ((-1, 0), (1, -2), (-3, -3)):
        with pytest.raises(DataError, match="h10 and h20 must be >= 0"):
            hodge_p0_series(h10, h20, 3)
    assert len(hodge_p0_series(0, 0, 3)) == 4  # zero is valid: 1 + t + t^2 + t^3


# the h^{n+1,0} gap between the m-point and n-point schemes, 1 <= n < m,
# is C(h10, n + 1)


def test_hodge_difference_examples():
    assert hodge_p0(ABELIAN, 2, 2) - hodge_p0(ABELIAN, 1, 2) == comb(2, 2) == 1
    for n, m in ((1, 2), (2, 5), (3, 9)):
        assert hodge_p0(K3, m, n + 1) - hodge_p0(K3, n, n + 1) == 0
    s = synthetic(1, 8, 17, h10=4, h20=0)
    assert hodge_p0(s, 5, 3) - hodge_p0(s, 2, 3) == comb(4, 3) == 4


def test_hodge_difference_identity_grid():
    for h10, h20 in itertools.product(range(4), range(3)):
        s = synthetic(1, 2 * h10, max(2 * h20, 1) + 2, h10=h10, h20=h20)
        for n in range(1, 5):
            for m in range(n + 1, 6):
                assert hodge_p0(s, m, n + 1) - hodge_p0(s, n, n + 1) == comb(h10, n + 1)


def composition_sum(s: SurfaceInvariants, a: Partition, p: int) -> int:
    """Independent Kuenneth oracle: explicit sum over compositions of p."""
    total = 0
    for t in itertools.product(range(p + 1), repeat=a.length):
        if sum(t) != p:
            continue
        product = 1
        for part, ti in zip(a.parts, t):
            if ti > 2 * part:
                product = 0
                break
            product *= hodge_p0(s, part, ti)
        total += product
    return total


def test_hodge_p0_tuple_examples():
    assert hodge_p0_tuple_vector(K3, Partition((1, 1)))[2] == 2
    assert hodge_p0_tuple_vector(ABELIAN, Partition((1, 2)))[1] == 4
    for p in range(0, 3):
        assert hodge_p0_tuple_vector(K3, Partition((1,)))[p] == hodge_p0(K3, 1, p)


def test_hodge_p0_tuple_against_composition_oracle():
    for s in (K3, ABELIAN):
        for a in (Partition((1, 2)), Partition((2, 2)), Partition((1, 1, 3))):
            for p in range(0, 5):
                got = hodge_p0_tuple_vector(s, a)[p]
                assert got == composition_sum(s, a, p), (s.name, a, p)


def test_hodge_p0_tuple_vector_length():
    a = Partition((1, 2))
    vector = hodge_p0_tuple_vector(ABELIAN, a)
    assert len(vector) == 2 * a.n + 1


# -- full Hodge diamonds ------------------------------------------------------------


def test_surface_diamond_shapes():
    d = surface_diamond(K3)
    assert d.h(1, 1) == 20 and d.h(2, 0) == 1 and d.h(0, 0) == 1
    assert d.is_symmetric()
    d = surface_diamond(ABELIAN)
    assert d.h(1, 0) == 2 and d.h(1, 1) == 4
    assert d.betti(1) == ABELIAN.b1 and d.betti(2) == ABELIAN.b2


def test_surface_diamond_refuses_invalid_surface():
    # b1 != 2*h10: the diamond would read Betti numbers (1, 6, 2, 6, 1)
    with pytest.raises(DataError, match="b1 != 2\\*h10"):
        surface_diamond(SurfaceInvariants("x", 1, 2, 2, 0, h10=3, h20=0))


def test_hodge_polynomial_full_n1_identity():
    for s in (K3, ABELIAN):
        d = surface_diamond(s)
        assert hodge_polynomial_full(d, 1) == d


def test_hodge_polynomial_full_k3_two_points():
    result = hodge_polynomial_full(surface_diamond(K3), 2)
    assert result.betti(2) == 23
    assert result.total() == 324
    assert result.is_symmetric()


def test_hodge_polynomial_full_degree_sums_match_betti():
    for s in (K3, ABELIAN):
        diamond = surface_diamond(s)
        series = poincare_series(s, 4)
        for n in range(1, 5):
            result = hodge_polynomial_full(diamond, n)
            for i in range(4 * n + 1):
                assert result.betti(i) == series.coeff(Exponent(n, (i,))), (s.name, n, i)


def test_hodge_polynomial_full_euler_specialization():
    # evaluating at x = y = -1 gives the coloured-count Euler number
    for s in (K3, ABELIAN):
        diamond = surface_diamond(s)
        for n in range(1, 5):
            result = hodge_polynomial_full(diamond, n)
            assert result.euler_characteristic() == colored_count(s.chi, n)


def test_hodge_polynomial_full_refuses_bad_diamonds():
    asymmetric = HodgeDiamond(2, {(0, 0): 1, (1, 0): 2, (2, 2): 1})
    with pytest.raises(DataError):
        hodge_polynomial_full(asymmetric, 2)
    not_surface = HodgeDiamond(1, {(0, 0): 1, (1, 1): 1})
    with pytest.raises(DataError):
        hodge_polynomial_full(not_surface, 2)
    # Hodge-symmetric, connected, but without h^{2,2} = h^{0,0}, or with
    # h^{1,0} = 1 and h^{2,1} = 0
    for cells in (
        {(0, 0): 1, (1, 1): 1},
        {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 3, (2, 2): 1},
    ):
        with pytest.raises(DataError, match="Serre duality"):
            hodge_polynomial_full(HodgeDiamond(2, cells), 2)


def test_hodge_diamond_rejects_negative_entries():
    with pytest.raises(DataError):
        HodgeDiamond(2, {(0, 0): -1})


@pytest.mark.parametrize(
    "size, cells",
    [(2.5, {(0, 0): 1}), (2, {(2, 2): 1.0}), (2, {(1, 1): True}), (2, {(1.0, 1): 1}), (True, {})],
)
def test_hodge_diamond_rejects_numbers_that_are_not_plain_ints(size, cells):
    with pytest.raises(DataError, match="plain ints"):
        HodgeDiamond(size, cells)


# symmetric and of size 2, but h^{0,0} = 2: two components
TWO_POINT_DIAMOND = HodgeDiamond(2, {(0, 0): 2, (1, 1): 1, (2, 2): 2})


@pytest.mark.parametrize(
    "call, args, error, message",
    [
        (poincare_series, (K3, 0), UsageError, "truncation must be >= 1, got 0"),
        (euler_series, (24, 0), UsageError, "truncation must be >= 1, got 0"),
        (hodge_p0_series, (2, 1, 0), UsageError, "truncation must be >= 1, got 0"),
        (betti_closed, (K3, 0, 0), UsageError, "n must be >= 1, got 0"),
        (betti_closed, (K3, 2, 3), UsageError, "closed forms exist for k in 0..2, got k=3"),
        (hodge_p0, (K3, 0, 0), UsageError, "n must be >= 1, got 0"),
        (HodgeDiamond, (-1, {}), ValueError, "size must be nonnegative"),
        (HodgeDiamond, (2, {(3, 0): 1}), DataError, "entry (3,0) outside 0..2"),
        (HodgeDiamond, (2, {(0, 3): 1}), DataError, "entry (0,3) outside 0..2"),
        (HodgeDiamond, (2, {(-1, 1): 1}), DataError, "entry (-1,1) outside 0..2"),
        (HodgeDiamond, (2, {(1, -1): 1}), DataError, "entry (1,-1) outside 0..2"),
        (
            hodge_polynomial_full, (TWO_POINT_DIAMOND, 2), DataError,
            "expected a connected surface diamond (h[0,0] = 1)",
        ),
        (hodge_polynomial_full, (surface_diamond(K3), 0), UsageError, "n must be >= 1, got 0"),
    ],
    ids=[
        "poincare-truncation-0", "euler-truncation-0", "hodge-p0-truncation-0",
        "betti-closed-n-0", "betti-closed-k-3", "hodge-p0-n-0", "diamond-size-minus-1",
        "diamond-p-above", "diamond-q-above", "diamond-p-below", "diamond-q-below",
        "full-h00-not-1", "full-n-0",
    ],
)
def test_each_refusal_states_its_condition(call, args, error, message):
    # each of these would answer, not raise, without its check
    with pytest.raises(ValueError) as excinfo:
        call(*args)
    assert type(excinfo.value) is error and str(excinfo.value) == message


def test_a_diamond_of_size_zero_and_the_edge_cells_are_accepted():
    # the bounds of the size and cell checks are inclusive
    assert HodgeDiamond(0, {(0, 0): 1}).cells == (((0, 0), 1),)
    corners = {(0, 0): 1, (0, 2): 1, (2, 0): 1, (2, 2): 1}
    assert len(HodgeDiamond(2, corners).cells) == 4


def test_hodge_diamond_stores_its_nonzero_cells_sorted():
    # any insertion order gives one diamond; its stored cells build it again
    d = HodgeDiamond(2, {(2, 2): 1, (1, 1): 20, (0, 0): 1, (2, 0): 0})
    assert d.cells == (((0, 0), 1), ((1, 1), 20), ((2, 2), 1))
    assert d == HodgeDiamond(2, d.cells) == HodgeDiamond(2, dict(reversed(d.cells)))
    assert d.entries() == [(0, 0, 1), (1, 1, 20), (2, 2, 1)]
    assert (d.h(1, 1), d.h(1, 0), d.total(), d.betti(2), d.euler_characteristic()) == (20, 0, 22, 20, 22)
    assert repr(d) == "HodgeDiamond(size=2, entries=3)"


# -- Euler characteristics -----------------------------------------------------------


def test_euler_char_tuple_examples():
    assert euler_char_tuple(K3, Partition((2,))) == 324
    for a in (Partition((1,)), Partition((1, 2)), Partition((2, 3, 4))):
        assert euler_char_tuple(ABELIAN, a) == 0
    assert euler_char_tuple(ENRIQUES, Partition((1,))) == 12


def test_euler_char_tuple_negative_chi():
    ruled = catalog_lookup("ruled", {"g": 2})  # chi = -4
    assert euler_char_tuple(ruled, Partition((1,))) == -4
    poly = poincare_polynomial_tuple(ruled, Partition((1, 2)))
    assert poly.euler_characteristic() == euler_char_tuple(ruled, Partition((1, 2)))


def coloured_counts(chi: int, n_max: int) -> list[int]:
    """Coefficients of ``prod_m (1 - q^m)^-chi`` up to ``q^n_max``, directly.

    The pentagonal theorem gives the Euler function ``prod (1 - q^m) = sum_k
    (-1)^k q^{k(3k-1)/2}``, k over all integers; its inverse, the partition
    numbers, by the pentagonal recurrence; and the power by |chi| plain
    convolutions.
    """
    euler = [0] * (n_max + 1)
    for k in range(-n_max, n_max + 1):
        if k * (3 * k - 1) // 2 <= n_max:
            euler[k * (3 * k - 1) // 2] += (-1) ** k
    partitions = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        partitions[n] = -sum(euler[j] * partitions[n - j] for j in range(1, n + 1))
    base = partitions if chi > 0 else euler
    counts = [1] + [0] * n_max
    for _ in range(abs(chi)):
        counts = [sum(counts[j] * base[n - j] for j in range(n + 1)) for n in range(n_max + 1)]
    return counts


def euler_memo_surfaces() -> list[SurfaceInvariants]:
    """One surface for each chi in -4, 0, 2, 12, 24."""
    return [
        catalog_lookup("ruled", {"g": 2}),
        ABELIAN,
        synthetic(1, 2, 4, h10=1, h20=0),
        ENRIQUES,
        K3,
    ]


def test_euler_char_tuple_is_the_product_of_direct_counts(monkeypatch):
    fresh_tables(monkeypatch)
    surfaces = euler_memo_surfaces()
    assert [s.chi for s in surfaces] == [-4, 0, 2, 12, 24]
    for s in surfaces:
        counts = coloured_counts(s.chi, 12)
        for n in range(1, 13):
            for a in enumerate_partitions(n):
                expected = prod(counts[part] for part in a.parts)
                # the first call stores the product, the second reads it
                assert euler_char_tuple(s, a) == expected, (s.chi, a)
                assert euler_char_tuple(s, a) == expected, (s.chi, a)


def test_euler_memo_multiplies_each_parts_tuple_once(monkeypatch):
    fresh_tables(monkeypatch)
    calls: list[tuple[int, tuple[int, ...]]] = []
    real = invariants.colored_count_tuple

    def counted(k, a):
        calls.append((k, a.parts))
        return real(k, a)

    monkeypatch.setattr(invariants, "colored_count_tuple", counted)
    partitions = [a for n in range(1, 13) for a in enumerate_partitions(n)]
    for s in euler_memo_surfaces():
        first = [euler_char_tuple(s, a) for a in partitions]
        assert calls == [(s.chi, a.parts) for a in partitions]
        calls.clear()
        assert [euler_char_tuple(s, Partition(a.parts)) for a in partitions] == first
        assert calls == []
        assert set(euler_table(s.chi).by_parts) == {a.parts for a in partitions}


def test_fresh_tables_empty_the_euler_memo(monkeypatch):
    ruled = catalog_lookup("ruled", {"g": 2})
    a = Partition((1, 2, 3))
    value = euler_char_tuple(ruled, a)
    assert a.parts in euler_table(-4).by_parts
    fresh_tables(monkeypatch)
    assert not euler_table(-4).by_parts
    calls = []

    def counted(k, p):
        calls.append(p)
        return colored_count_tuple(k, p)

    monkeypatch.setattr(invariants, "colored_count_tuple", counted)
    assert euler_char_tuple(ruled, a) == value
    assert calls == [a]


def test_poincare_memo_builds_each_polynomial_once(monkeypatch):
    fresh_tables(monkeypatch)
    built: list[tuple[int, ...]] = []
    real = invariants.PoincarePolynomial

    def counted(coefficients):
        built.append(coefficients)
        return real(coefficients)

    monkeypatch.setattr(invariants, "PoincarePolynomial", counted)
    partitions = [a for n in range(1, 11) for a in enumerate_partitions(n)]
    for s in (K3, ABELIAN, ENRIQUES):
        table = betti_table(s.b0, s.b1, s.b2)
        first = [poincare_polynomial_tuple(s, a) for a in partitions]
        assert built == [table.product(a.parts) for a in partitions]
        built.clear()
        again = [poincare_polynomial_tuple(s, Partition(a.parts)) for a in partitions]
        assert all(x is y for x, y in zip(again, first))
        assert built == []
        assert set(table.by_parts) == {a.parts for a in partitions}
        assert all(table.by_parts[a.parts] is p for a, p in zip(partitions, first))
        assert all(p.coefficients == table.product(a.parts) for a, p in zip(partitions, first))


def test_fresh_tables_empty_the_poincare_memo(monkeypatch):
    a = Partition((1, 2, 3))
    before = poincare_polynomial_tuple(QUINTIC, a)
    assert betti_table(QUINTIC.b0, QUINTIC.b1, QUINTIC.b2).by_parts[a.parts] is before
    fresh_tables(monkeypatch)
    assert not betti_table(QUINTIC.b0, QUINTIC.b1, QUINTIC.b2).by_parts
    after = poincare_polynomial_tuple(QUINTIC, a)
    assert after == before and after is not before


def test_decide_on_negative_chi_matches_a_pairwise_oracle(monkeypatch):
    # ruled g = 2 has chi = -4, so its Euler rows are negative and the
    # Kuenneth packing refuses them: the memo must hold those products itself
    ruled = catalog_lookup("ruled", {"g": 2})
    counts = coloured_counts(ruled.chi, 8)
    fresh_tables(monkeypatch)
    for sweep in range(2):  # the second sweep reads every stored value
        tiers = set()
        for n in range(2, 9):
            betti_rows = betti_table(ruled.b0, ruled.b1, ruled.b2).rows_upto(n)
            hodge_rows = hodge_p0_table(ruled.h10, ruled.h20).rows_upto(n)
            for a, b in itertools.combinations(enumerate_partitions(n), 2):
                expected = None
                for invariant, values in (
                    ("euler_characteristic", lambda p: [prod(counts[part] for part in p.parts)]),
                    ("betti", lambda p: dense_kuenneth([betti_rows[part] for part in p.parts])),
                    ("hodge_p0", lambda p: dense_kuenneth([hodge_rows[part] for part in p.parts])),
                ):
                    pairs = enumerate(zip(values(a), values(b)))
                    diffs = [(i, x, y) for i, (x, y) in pairs if x != y]
                    if diffs:
                        i, x, y = diffs[0]
                        index = None if invariant == "euler_characteristic" else i
                        expected = Witness(invariant, index, x, y)
                        break
                verdict = decide(ruled, a, b)
                assert verdict.witness == expected, (sweep, a, b)
                assert verdict.outcome is (
                    Outcome.UNKNOWN if expected is None else Outcome.NON_ISOMORPHIC
                ), (sweep, a, b)
                tiers.add(expected.invariant if expected else None)
        assert "euler_characteristic" in tiers and "betti" in tiers, tiers


# -- Kuenneth products against a dense convolution -------------------------------------


def slot_bytes(vectors: list[list[int]]) -> int:
    """Smallest power-of-two byte count whose signed slots hold the product of the sums."""
    bound = prod(sum(v) for v in vectors)
    width = 1
    while bound >= 1 << 8 * width - 1:
        width *= 2
    return width


def test_kuenneth_products_match_dense_convolution():
    grid = [(b0, b1, b2) for b0 in (2, 3) for b1, b2 in ((0, 2), (2, 5))]
    bases = list(load_catalog().representatives()) + valid_only(grid)
    partitions = [p for n in range(1, 11) for p in enumerate_partitions(n)]
    cases = [(s, a) for s in bases for a in partitions]
    cases += [(QUINTIC, Partition((1,) * 12)), (K3, Partition((1, 31)))]
    widths = set()
    # every product twice: the second call reads every packed row from the memo
    for s, a in cases + cases:
        rows = betti_table(s.b0, s.b1, s.b2).rows_upto(max(a.parts))
        vectors = [rows[part] for part in a.parts]
        widths.add(slot_bytes(vectors))
        poly = poincare_polynomial_tuple(s, a)
        assert list(poly.coefficients) == dense_kuenneth(vectors), (s.name, a)
        if has_hodge_data(s):
            rows = hodge_p0_table(s.h10, s.h20).rows_upto(max(a.parts))
            vectors = [rows[part] for part in a.parts]
            widths.add(slot_bytes(vectors))
            assert hodge_p0_tuple_vector(s, a) == dense_kuenneth(vectors), (s.name, a)
    # (3, 0, 2) is no surface (b2 < b0), but its table multiplies all the same
    for b0, b1, b2 in grid:
        table = betti_table(b0, b1, b2)
        for a in partitions:
            vectors = [table.rows_upto(max(a.parts))[part] for part in a.parts]
            widths.add(slot_bytes(vectors))
            assert list(table.product(a.parts)) == dense_kuenneth(vectors), a
    # slots of 1, 2, 4 and 8 bytes are read by a cast, wider ones by slicing
    assert widths == {1, 2, 4, 8, 16}


def test_truncated_kuenneth_product_of_a_negative_row_is_a_data_error():
    # products are always full, so a caller after a prefix slices the returned
    # tuple; a negative row is refused before any prefix can be read
    table = betti_table(1, -3, 2)
    for length in (1, 5, 9):
        with pytest.raises(DataError, match="negative coefficient"):
            table.product((1, 2))[:length]


# -- packed rows: the memo of GrowOnlyTable.product --------------------------------


class RecordingMemo(dict):
    """A packed-row memo that logs every key it is asked for."""

    def __init__(self, entries: dict) -> None:
        super().__init__(entries)
        self.reads: list[tuple[int, int]] = []

    def get(self, key, default=None):
        self.reads.append(key)
        return super().get(key, default)


def unpack(value: int, w: int, length: int) -> list[int]:
    """Coefficients from signed little-endian ``w``-byte slots."""
    raw = value.to_bytes(length * w, "little")
    return [int.from_bytes(raw[i:i + w], "little", signed=True) for i in range(0, len(raw), w)]


def test_packed_rows_are_read_only_at_their_own_width(monkeypatch):
    # (1, 31) on K3 needs 16-byte slots, the small products around it 1, 2
    # or 4 bytes, and most of them read row 1 too; the first call for a
    # partition reads each of its rows packed at the product's width, a
    # repeat reads the stored polynomial and no packed row
    fresh_tables(monkeypatch)
    table = betti_table(K3.b0, K3.b1, K3.b2)
    memo = RecordingMemo(table._packed)
    monkeypatch.setattr(table, "_packed", memo)
    rows = table.rows_upto(31)
    cases = [(1, 31), (1,), (1, 1), (1, 31), (2, 3), (1, 1, 1), (1, 2, 31), (1,)]
    widths_of_row_1 = set()
    seen = set()
    for parts in cases * 2:
        vectors = [rows[part] for part in parts]
        w = slot_bytes(vectors)
        if 1 in parts:
            widths_of_row_1.add(w)
        memo.reads.clear()
        poly = poincare_polynomial_tuple(K3, Partition(parts))
        assert list(poly.coefficients) == dense_kuenneth(vectors), parts
        expected_reads = [] if parts in seen else [(part, w) for part in parts]
        assert memo.reads == expected_reads, parts
        seen.add(parts)
    assert widths_of_row_1 == {1, 2, 16}
    assert set(table.by_parts) == seen
    for (n, w), value in memo.items():
        assert unpack(value, w, len(rows[n])) == rows[n], (n, w)


def test_negative_row_is_a_data_error_every_time_and_never_packed():
    # no surface has b1 = -3 (it fails validation), so the table is built directly
    table = betti_table(1, -3, 2)
    assert min(table.rows_upto(1)[1]) < 0
    for _ in range(2):
        for parts in ((1, 2), (1,), (2, 1, 1)):
            with pytest.raises(DataError, match="negative coefficient"):
                table.product(parts)
    assert not any(n == 1 for n, _ in table._packed)
    rows = table.rows_upto(2)
    assert all(min(rows[n]) >= 0 for n, _ in table._packed)


def test_returned_vectors_are_copies_of_the_stored_products():
    a = Partition((1, 2, 2))
    hodge = hodge_p0_tuple_vector(ABELIAN, a)
    expected_hodge = list(hodge)
    hodge[0] = -1
    hodge.append(7)
    assert hodge_p0_tuple_vector(ABELIAN, a) == expected_hodge
    # the Betti side hands out the kept polynomial's tuple, which cannot change
    table = betti_table(ABELIAN.b0, ABELIAN.b1, ABELIAN.b2)
    line = table.product(a.parts)
    assert type(line) is tuple
    assert poincare_polynomial_tuple(ABELIAN, a).coefficients == line


def test_packed_rows_stay_bounded(monkeypatch):
    # a fresh table: polynomials kept by an earlier test would skip the packing
    fresh_tables(monkeypatch)
    table = betti_table(ABELIAN.b0, ABELIAN.b1, ABELIAN.b2)
    for n in range(1, 13):
        for a in enumerate_partitions(n):
            poincare_polynomial_tuple(ABELIAN, a)
    widths: dict[int, set[int]] = {}
    for part, w in table._packed:
        assert 1 <= part <= 12, part
        assert w & (w - 1) == 0, w
        widths.setdefault(part, set()).add(w)
    assert sorted(widths) == list(range(1, 13))
    # products with n <= 12 on abelian fit 8-byte slots: at most 1, 2, 4, 8
    assert all(ws <= {1, 2, 4, 8} for ws in widths.values()), widths


def test_threads_share_a_fresh_table():
    s = synthetic(2, 6, 19)
    table = betti_table(s.b0, s.b1, s.b2)
    assert len(table.rows) == 1 and not table._packed, "table is not fresh"
    assert not table.by_parts, "table is not fresh"
    partitions = [p for n in range(1, 11) for p in enumerate_partitions(n)]
    results: list = [None] * 4

    def work(i: int) -> None:
        results[i] = [poincare_polynomial_tuple(s, a).coefficients for a in partitions]

    race(work)
    rows = table.rows_upto(10)
    expected = [
        tuple(dense_kuenneth([rows[part] for part in a.parts])) for a in partitions
    ]
    assert results == [expected] * len(results)
    assert set(table.by_parts) == {a.parts for a in partitions}


def test_threads_share_a_fresh_hodge_p0_table(monkeypatch):
    # the b0 = 2 base above has no Hodge data: h^(p,0) needs b0 = 1
    fresh_tables(monkeypatch)
    table = hodge_p0_table(ABELIAN.h10, ABELIAN.h20)
    assert len(table.rows) == 1 and not table._packed
    partitions = [p for n in range(1, 11) for p in enumerate_partitions(n)]
    results: list = [None] * 4

    def work(i: int) -> None:
        results[i] = [hodge_p0_tuple_vector(ABELIAN, a) for a in partitions]

    race(work)
    rows = table.rows_upto(10)
    expected = [dense_kuenneth([rows[part] for part in a.parts]) for a in partitions]
    assert results == [expected] * len(results)
