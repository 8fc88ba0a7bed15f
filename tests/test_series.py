"""The series container, and the test oracle's arithmetic on term maps: ring
laws, binomial expansions and truncated products."""

from __future__ import annotations

import hashlib
import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hilbprod.series as series
from hilbprod.invariants import euler_series, hodge_p0_series, poincare_series
from hilbprod.series import Exponent, TruncatedSeries
from hilbprod.surfaces import load_catalog
from product_oracle import binomial_factor, constant_one, indexed_product, mul, term_map


CATALOG = {s.name: s for s in load_catalog().representatives()}


# -- independent oracles -------------------------------------------------------


def dict_convolve(f: dict, g: dict, trunc: int) -> dict:
    """Plain-dict convolution, independent of TruncatedSeries internals."""
    out: dict = {}
    for (t1, z1), c1 in f.items():
        for (t2, z2), c2 in g.items():
            if t1 + t2 <= trunc:
                key = (t1 + t2, z1 + z2)
                out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def pascal_binomial(n: int, k: int) -> int:
    """Binomial coefficient from Pascal's triangle, no math.comb."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def as_dict(terms: dict) -> dict:
    """A term map in one auxiliary variable keyed by ``(t_deg, z_deg)``."""
    return {(t_deg, sum(aux)): c for (t_deg, aux), c in terms.items()}


# -- constant_one ---------------------------------------------------------------


def test_constant_one_single_term():
    assert constant_one(1) == {(0, (0,)): 1}


def test_constant_one_zero_truncation():
    one = constant_one(0)
    assert one == {(0, ()): 1}
    assert mul(one, one, 0) == one


def test_constant_one_is_neutral():
    s = binomial_factor(Exponent(1, (1,)), 1, 3, 4)
    assert mul(constant_one(1), s, 4) == s
    assert mul(s, constant_one(1), 4) == s


# -- mul -------------------------------------------------------------------------


def test_mul_binomial_square():
    f = {(0, (0,)): 1, (1, (1,)): 1}  # 1 + z t
    assert mul(f, f, 3) == {(0, (0,)): 1, (1, (1,)): 2, (2, (2,)): 1}


def test_mul_telescoping_truncates():
    geo = {(i, ()): 1 for i in range(4)}
    lin = {(0, ()): 1, (1, ()): -1}
    assert mul(geo, lin, 3) == constant_one(0)


def test_mul_against_dict_convolution_oracle():
    # (1 - z^2 t)^-22 times (1 - t)^-1, checked against a plain convolution
    f = binomial_factor(Exponent(1, (2,)), -1, -22, 3)
    g = binomial_factor(Exponent(1, (0,)), -1, -1, 3)
    product = mul(f, g, 3)
    fd = {(j, 2 * j): comb(22 + j - 1, j) for j in range(4)}
    gd = {(j, 0): 1 for j in range(4)}
    expected = dict_convolve(fd, gd, 3)
    assert as_dict(product) == expected
    assert product[(1, (2,))] == 22


def test_mul_context_mismatch():
    # terms in different numbers of auxiliary variables do not multiply
    with pytest.raises(ValueError):
        mul(constant_one(1), constant_one(0), 3)
    with pytest.raises(ValueError):
        mul(constant_one(2), constant_one(1), 3)


# -- binomial_factor --------------------------------------------------------------


def test_binomial_positive_exponent():
    s = binomial_factor(Exponent(1, (1,)), 1, 2, 3)
    assert as_dict(s) == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_binomial_negative_exponent_coefficient():
    # coefficient of (z^2 t)^2 in (1 - z^2 t)^-22 is C(23, 2)
    s = binomial_factor(Exponent(1, (2,)), -1, -22, 4)
    assert s[(2, (4,))] == pascal_binomial(23, 2) == 253


def test_binomial_geometric_series():
    s = binomial_factor(Exponent(1, ()), -1, -1, 4)
    assert s == {(i, ()): 1 for i in range(5)}


def test_binomial_alternating_signs():
    # (1 + t)^-1 = 1 - t + t^2 - ...
    s = binomial_factor(Exponent(1, ()), 1, -1, 4)
    assert [s[(i, ())] for i in range(5)] == [1, -1, 1, -1, 1]


def test_binomial_rejects_constant_monomial():
    with pytest.raises(ValueError):
        binomial_factor(Exponent(0, (1,)), 1, 2, 3)


def test_binomial_zero_exponent_is_one():
    assert binomial_factor(Exponent(1, ()), -1, 0, 5) == constant_one(0)


# -- coeff -----------------------------------------------------------------------


def test_coeff_present_and_absent():
    s = poincare_series(CATALOG["k3"], 2)
    assert s.coeff(Exponent(1, (2,))) == 22
    assert s.coeff(Exponent(1, (1,))) == 0
    assert s.coeff(Exponent(1, (9,))) == 0  # past the end of the line


def test_coeff_beyond_truncation_is_an_error():
    for s, beyond in (
        (poincare_series(CATALOG["k3"], 2), Exponent(3, (0,))),
        (euler_series(1, 2), Exponent(3, ())),
    ):
        with pytest.raises(ValueError):
            s.coeff(beyond)


def test_coeff_with_the_wrong_number_of_auxiliary_degrees_is_an_error():
    # an Euler series would read the z-less line, a Betti one index an empty tuple
    for s, bad, message in (
        (euler_series(24, 4), Exponent(1, (0,)), "1 auxiliary degrees, series declares 0"),
        (poincare_series(CATALOG["k3"], 4), Exponent(1, ()), "0 auxiliary degrees, series declares 1"),
        (poincare_series(CATALOG["k3"], 4), Exponent(1, (0, 0)), "2 auxiliary degrees, series declares 1"),
    ):
        with pytest.raises(ValueError, match=message):
            s.coeff(bad)


def test_coeff_of_a_negative_degree_is_an_error():
    k3 = CATALOG["k3"]
    s = poincare_series(k3, 4)
    assert s.coeff(Exponent(1, (2,))) == 22
    for bad in (Exponent(-1, (0,)), Exponent(1, (-2,)), Exponent(-4, (-1,))):
        with pytest.raises(ValueError):
            s.coeff(bad)
    s = euler_series(24, 4)
    assert s.coeff(Exponent(1, ())) == 24
    with pytest.raises(ValueError):
        s.coeff(Exponent(-1, ()))


# -- indexed_product ---------------------------------------------------------------


def test_indexed_product_of_ones():
    result = indexed_product(lambda m: constant_one(0), 4, 0)
    assert result == constant_one(0)


def test_indexed_product_counts_partitions_of_five():
    # coefficient of q^5 in prod (1-q^m)^-1 equals #partitions of 5
    eta_inv = indexed_product(
        lambda m: binomial_factor(Exponent(m, ()), -1, -1, 5), 5, 0
    )
    listed = [
        (5,), (1, 4), (2, 3), (1, 1, 3), (1, 2, 2), (1, 1, 1, 2), (1, 1, 1, 1, 1),
    ]
    assert eta_inv[(5, ())] == len(listed) == 7


def test_indexed_product_three_coloured_partitions():
    # brute-force enumeration of 3-coloured partitions of 3, inline
    colours = range(3)
    items = [(p, c) for p in (1, 2, 3) for c in colours]
    found = set()
    for size in range(1, 4):
        for combo in itertools.combinations_with_replacement(items, size):
            if sum(p for p, _ in combo) == 3:
                found.add(combo)
    product = indexed_product(
        lambda m: binomial_factor(Exponent(m, ()), -1, -3, 3), 3, 0
    )
    assert product[(3, ())] == len(found) == 22


def test_indexed_product_rejects_nonunit_constant():
    bad = {(0, ()): 2, (1, ()): 1}
    with pytest.raises(ValueError):
        indexed_product(lambda m: bad, 3, 0)


def test_indexed_product_power_law():
    # product of identical factor families equals the power of the single one
    for k in range(1, 5):
        single = indexed_product(
            lambda m: binomial_factor(Exponent(m, ()), -1, -1, 6), 6, 0
        )
        multi = indexed_product(
            lambda m: binomial_factor(Exponent(m, ()), -1, -k, 6), 6, 0
        )
        power = constant_one(0)
        for _ in range(k):
            power = mul(power, single, 6)
        assert multi == power


# -- canonical form and ring laws ----------------------------------------------


def small_series(aux_count: int, truncation: int):
    keys = st.tuples(
        st.integers(min_value=0, max_value=truncation),
        st.tuples(*([st.integers(min_value=0, max_value=3)] * aux_count)),
    )
    coefficients = st.integers(min_value=-5, max_value=5).filter(bool)
    return st.dictionaries(keys, coefficients, max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1).flatmap(lambda aux: st.tuples(
    st.just(aux), small_series(aux, 4), small_series(aux, 4), small_series(aux, 4))))
def test_ring_laws(quadruple):
    aux, a, b, c = quadruple
    assert mul(a, b, 4) == mul(b, a, 4)
    assert mul(mul(a, b, 4), c, 4) == mul(a, mul(b, c, 4), 4)
    assert mul(constant_one(aux), a, 4) == a


@settings(max_examples=60, deadline=None)
@given(
    t_deg=st.integers(1, 3),
    aux=st.integers(0, 2),
    sign=st.sampled_from((1, -1)),
    e=st.integers(-8, 8),
)
def test_binomial_inverse_property(t_deg, aux, sign, e):
    monomial = Exponent(t_deg, (aux,))
    f = binomial_factor(monomial, sign, e, 6)
    g = binomial_factor(monomial, sign, -e, 6)
    assert mul(f, g, 6) == constant_one(1)


@settings(max_examples=40, deadline=None)
@given(st.tuples(small_series(1, 4), small_series(1, 4)))
def test_canonical_form_after_mul(pair):
    a, b = pair
    for (t_deg, _), coeff in mul(a, b, 4).items():
        assert coeff != 0
        assert t_deg <= 4


def test_equality_requires_same_context():
    ones = ((1,),) * 4
    # (1 - t)^-1: every line of the h^(p,0) series of h10 = h20 = 0 is x^0
    assert hodge_p0_series(0, 0, 3) == TruncatedSeries(3, 1, ones)
    assert TruncatedSeries(3, 0, ones) != TruncatedSeries(3, 1, ones)
    assert euler_series(1, 3) != euler_series(1, 4)


def test_repr_names_the_context_and_the_nonzero_terms():
    # K3 up to t^2: 1; 1 + 22 z^2 + z^4; 1 + 23 z^2 + 276 z^4 + 23 z^6 + z^8
    assert repr(poincare_series(CATALOG["k3"], 2)) == (
        "TruncatedSeries(truncation=2, aux_count=1, nterms=9)"
    )
    assert repr(euler_series(24, 3)) == "TruncatedSeries(truncation=3, aux_count=0, nterms=4)"


def test_a_term_map_is_not_a_series():
    # the constructor takes the lines GrowOnlyTable.series builds, not terms
    with pytest.raises(TypeError):
        TruncatedSeries(3, 0, {Exponent(0, ()): 1})
    with pytest.raises(TypeError):
        TruncatedSeries(3, 0, ((1,),) * 3)


def test_equality_follows_the_terms_not_the_line_lengths():
    # with h20 = 0, row n of the h^{p,0} table ends in 2n zero slots, which
    # the series strips
    assert len(series.hodge_p0_table(0, 0).rows_upto(5)[5]) == 11
    assert hodge_p0_series(0, 0, 5).lines == ((1,),) * 6
    k3 = CATALOG["k3"]
    built = [
        (poincare_series(k3, 6), series.betti_table(1, 0, 22)),
        (euler_series(-4, 9), series.euler_table(-4)),
        (hodge_p0_series(0, 2, 5), series.hodge_p0_table(0, 2)),
    ]
    for engine, table in built:
        again = table.series(engine.truncation)
        assert engine == again and again == engine
        assert hash(engine) == hash(again)
        assert len(engine) == len(again) == len(term_map(engine))
        assert engine.dump() == again.dump()


# -- dump -------------------------------------------------------------------------


def test_dump_format_one_aux():
    s = poincare_series(CATALOG["k3"], 1)
    assert s.dump() == "t^0 z^0 : 1\nt^1 z^0 : 1\nt^1 z^2 : 22\nt^1 z^4 : 1"


def test_dump_format_no_aux():
    s = euler_series(5, 1)
    assert s.dump() == "t^0 : 1\nt^1 : 5"


# sha256 over the dump() of every series below, each followed by a NUL byte,
# computed over this list before series lost their z-degree cap: no dump in
# it moved
PINNED_DUMPS = "f8b3aa5244905d60c660a547805783ee64d35c35bceba69d1ceb816309e4e6c1"


def test_series_dumps_are_pinned():
    digest = hashlib.sha256()
    built = [euler_series(chi, 250) for chi in range(-6, 61)]
    built += [poincare_series(s, 24) for s in CATALOG.values()]
    built += [hodge_p0_series(h10, h20, 200) for h10 in range(5) for h20 in range(7)]
    for s in built:
        digest.update(s.dump().encode() + b"\0")
    assert digest.hexdigest() == PINNED_DUMPS


def test_series_is_immutable():
    s = euler_series(1, 2)
    with pytest.raises(AttributeError):
        s.truncation = 5


def test_k3_product_low_order_against_convolution_oracle():
    # expand the five K3 factors at truncation 2 by hand and convolve
    factors = [
        {(j, 0): 1 for j in range(3)},                                 # (1-t)^-1
        {(j, 2 * j): comb(21 + j, j) for j in range(3)},               # (1-z^2 t)^-22
        {(j, 4 * j): 1 for j in range(3)},                             # (1-z^4 t)^-1
        {(0, 0): 1, (1, 2): 1},                                        # m=2: (1-z^2 t^2)^-1 at t<=2
        {(0, 0): 1, (1, 4): 22},                                       # m=2: (1-z^4 t^2)^-22
        {(0, 0): 1, (1, 6): 1},                                        # m=2: (1-z^6 t^2)^-1
    ]
    # the m=2 dicts above use t-units of 2: rescale to true t degrees
    rescaled = factors[:3] + [
        {(2 * t, z): c for (t, z), c in d.items()} for d in factors[3:]
    ]
    product: dict = {(0, 0): 1}
    for d in rescaled:
        product = dict_convolve(product, d, 2)
    assert product[(2, 4)] == 276
    total_t2 = sum(c for (t, _z), c in product.items() if t == 2)
    assert total_t2 == 324
