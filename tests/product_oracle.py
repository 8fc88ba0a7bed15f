"""Test-only oracle: Goettsche's products expanded factor by factor.

This is the direct expansion the engine used before its log-derivative
kernel: every factor ``(1 + sign * M)^e`` is expanded by the (generalized)
binomial theorem and the factors are multiplied one at a time, on plain
term maps ``{(t_deg, aux_degs): coeff}`` that hold only nonzero
coefficients of t-degree at most the truncation.  Every product comes back
as such a term map; ``term_map`` reads an engine series the same way, so
the tests compare the two as dicts.  The oracle shares no code with
``hilbprod.series``, so agreement at small truncation is an independent
check of the kernel.  It is also the only place where series are
multiplied.
"""

from __future__ import annotations

from math import comb
from typing import Callable

from hilbprod.series import Exponent, TruncatedSeries

Terms = dict[tuple[int, tuple[int, ...]], int]


def term_map(s: TruncatedSeries) -> Terms:
    """The nonzero terms of an engine series."""
    return {(e.t_deg, e.aux_degs): c for e, c in s.terms()}


def constant_one(aux_count: int) -> Terms:
    """The multiplicative identity in ``aux_count`` auxiliary variables."""
    return {(0, (0,) * aux_count): 1}


def mul(a: Terms, b: Terms, truncation: int, *, aux_cap: int | None = None) -> Terms:
    """Convolution product; terms beyond the t-truncation are discarded.

    ``aux_cap`` additionally discards product terms whose total auxiliary
    degree exceeds the cap.  All expanded factors have nonnegative exponents,
    so degrees only add and the cap is exact for coefficients of auxiliary
    degree <= cap.  Terms in different numbers of auxiliary variables are a
    ValueError.
    """
    out: Terms = {}
    for (t1, aux1), c1 in a.items():
        for (t2, aux2), c2 in b.items():
            t_deg = t1 + t2
            if t_deg > truncation:
                continue
            aux = tuple(x + y for x, y in zip(aux1, aux2, strict=True))
            if aux_cap is not None and sum(aux) > aux_cap:
                continue
            out[(t_deg, aux)] = out.get((t_deg, aux), 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def binomial_factor(
    monomial: Exponent,
    sign: int,
    exponent: int,
    truncation: int,
    *,
    aux_cap: int | None = None,
) -> Terms:
    """Expansion of ``(1 + sign * M)^exponent`` for a monomial ``M``, in as
    many auxiliary variables as ``M`` has.

    ``M`` must have t-degree >= 1 so that only finitely many powers survive
    the truncation.  Negative exponents use the generalized binomial series:
    ``(1 - M)^-e = sum_j C(e+j-1, j) M^j``.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if monomial.t_deg < 1:
        raise ValueError(
            "monomial must have t-degree >= 1 (otherwise the expansion does "
            "not terminate under truncation)"
        )
    j_max = truncation // monomial.t_deg
    if aux_cap is not None:
        total_aux = sum(monomial.aux_degs)
        if total_aux > 0:
            j_max = min(j_max, aux_cap // total_aux)
    if exponent >= 0:
        j_max = min(j_max, exponent)

    terms: Terms = {}
    for j in range(j_max + 1):
        if exponent >= 0:
            c = comb(exponent, j) * sign**j
        else:
            c = comb(-exponent + j - 1, j) * (-sign) ** j
        terms[(j * monomial.t_deg, tuple(j * d for d in monomial.aux_degs))] = c
    return terms


def indexed_product(
    factor_at: Callable[[int], Terms],
    truncation: int,
    aux_count: int,
    *,
    aux_cap: int | None = None,
) -> Terms:
    """Truncated product of ``factor_at(m)`` over ``m = 1..truncation``.

    Each factor must be normalized (constant term 1) and contribute nothing
    below t-degree ``m`` beyond that constant.
    """
    result = constant_one(aux_count)
    zero = (0, (0,) * aux_count)
    for m in range(1, truncation + 1):
        factor = factor_at(m)
        if factor.get(zero) != 1:
            raise ValueError(
                f"factor at index {m} is not normalized (constant term != 1)"
            )
        for t_deg, _ in factor:
            if 0 < t_deg < m:
                raise ValueError(
                    f"factor at index {m} has a term of t-degree {t_deg} < {m}"
                )
        result = mul(result, factor, truncation, aux_cap=aux_cap)
    return result


# -- the package's generating functions, expanded directly -----------------------


def poincare_product(
    b0: int, b1: int, b2: int, truncation: int, z_cap: int | None = None
) -> Terms:
    """Goettsche's Betti product in z and t."""

    def factor_at(m: int) -> Terms:
        result = constant_one(1)
        pieces = (
            (2 * m - 1, 1, b1),
            (2 * m + 1, 1, b1),
            (2 * m - 2, -1, -b0),
            (2 * m, -1, -b2),
            (2 * m + 2, -1, -b0),
        )
        for z_deg, sign, exponent in pieces:
            piece = binomial_factor(
                Exponent(m, (z_deg,)), sign, exponent, truncation, aux_cap=z_cap
            )
            result = mul(result, piece, truncation, aux_cap=z_cap)
        return result

    return indexed_product(factor_at, truncation, 1, aux_cap=z_cap)


def euler_product(chi: int, truncation: int) -> Terms:
    """``prod_m (1 - t^m)^-chi``."""
    return indexed_product(
        lambda m: binomial_factor(Exponent(m), -1, -chi, truncation),
        truncation,
        0,
    )


def hodge_p0_product(h10: int, h20: int, truncation: int) -> Terms:
    """``(1+xt)^h10 (1-t)^-1 (1-x^2 t)^-h20`` in x and t."""
    series = binomial_factor(Exponent(1, (1,)), 1, h10, truncation)
    series = mul(series, binomial_factor(Exponent(1, (0,)), -1, -1, truncation), truncation)
    return mul(series, binomial_factor(Exponent(1, (2,)), -1, -h20, truncation), truncation)


def hodge_product(diamond: list[tuple[int, int, int]], truncation: int) -> Terms:
    """Goettsche's Hodge product in x, y and t for ``(p, q, h^{p,q})`` entries.

    A term map ``{(t_deg, (i, j)): coeff}`` of the nonzero coefficients of
    ``x^i y^j t^n``, n <= truncation.
    """
    product = constant_one(2)
    for k in range(1, truncation + 1):
        for p, q, hpq in diamond:
            monomial = Exponent(k, (p + k - 1, q + k - 1))
            if (p + q) % 2 == 1:
                piece = binomial_factor(monomial, 1, hpq, truncation)
            else:
                piece = binomial_factor(monomial, -1, -hpq, truncation)
            product = mul(product, piece, truncation)
    return product


# -- Kuenneth products, by schoolbook convolution ------------------------------


def dense_kuenneth(vectors: list[list[int]]) -> list[int]:
    """Product of polynomials given as coefficient lists, one convolution per factor."""
    product = [1]
    for vector in vectors:
        out = [0] * (len(product) + len(vector) - 1)
        for i, x in enumerate(product):
            for j, y in enumerate(vector):
                out[i + j] += x * y
        product = out
    return product
