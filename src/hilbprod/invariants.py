"""Betti, Hodge and Euler invariants of Hilbert schemes of points and their products.

Everything is read off specializations of Goettsche's infinite product,
computed exactly by the grow-only tables of ``hilbprod.series``:

* the two-variable Betti product whose coefficient of ``z^k t^n`` is the k-th
  Betti number of the n-point Hilbert scheme of the surface (Goettsche's
  formula, driven by b0, b1, b2 of the surface);
* the one-variable series ``(1+xt)^h10 / ((1-t)(1-x^2 t)^h20)`` whose
  coefficient of ``x^p t^n`` is ``h^{p,0}`` of the n-point Hilbert scheme
  (connected surfaces only);
* the full two-variable Hodge product over the surface's Hodge diamond;
* the Euler product ``prod (1-q^m)^-chi``, i.e. chi-coloured partition counts.

Products of Hilbert schemes are handled through the Kuenneth rule: multiply
the factors' Poincare (or ``h^{p,0}``) polynomials, which
``GrowOnlyTable.product`` does in the table whose rows it multiplies.  The
two products ``decide`` compares are kept once per parts tuple, in the
``by_parts`` of the table of their own series, and only a miss multiplies:
the Euler characteristic as an int, and the Betti numbers as the one
``PoincarePolynomial`` record that every later call returns.  The
``h^{p,0}`` numbers of a product are multiplied on every call.  Invariants
that need Hodge data refuse when h10/h20 are absent instead of inventing
values.
"""

from __future__ import annotations

from itertools import chain
from math import comb

from ._record import Record
from .errors import DataError, UsageError, require_plain_ints
from .partitions import Partition, colored_count_tuple
from .series import (
    TruncatedSeries,
    betti_table,
    euler_table,
    hodge_grid,
    hodge_p0_table,
)
from .surfaces import SurfaceInvariants

__all__ = [
    "PoincarePolynomial",
    "HodgeDiamond",
    "poincare_series",
    "euler_series",
    "hodge_p0_series",
    "betti_closed",
    "poincare_polynomial_tuple",
    "hodge_p0",
    "has_hodge_data",
    "require_hodge_data",
    "hodge_p0_tuple_vector",
    "surface_diamond",
    "hodge_polynomial_full",
    "euler_char_tuple",
]


# -- Poincare side -------------------------------------------------------------


def poincare_series(s: SurfaceInvariants, truncation: int) -> TruncatedSeries:
    """Betti generating series of the surface's Hilbert schemes of points.

    The coefficient of ``z^k t^n`` is the k-th Betti number of the n-point
    Hilbert scheme, for every n up to the truncation order.
    """
    require_plain_ints(truncation=truncation)
    if truncation < 1:
        raise UsageError(f"truncation must be >= 1, got {truncation}")
    return betti_table(s.b0, s.b1, s.b2).series(truncation)


def euler_series(chi: int, truncation: int) -> TruncatedSeries:
    """Euler-characteristic generating series ``prod_m (1 - q^m)^-chi``."""
    require_plain_ints(chi=chi, truncation=truncation)
    if truncation < 1:
        raise UsageError(f"truncation must be >= 1, got {truncation}")
    return euler_table(chi).series(truncation)


def betti_closed(s: SurfaceInvariants, n: int, k: int) -> int | None:
    """Closed-form Betti numbers of the n-point Hilbert scheme, k in {0, 1, 2}.

    Degree 2 has a closed form only for connected surfaces with vanishing
    first Betti number; elsewhere the answer is ``None`` (not applicable),
    never a silent zero.
    """
    require_plain_ints(n=n, k=k)
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    if k == 0:
        return comb(n + s.b0 - 1, s.b0 - 1)
    if k == 1:
        return s.b1 * comb(n + s.b0 - 2, s.b0 - 1)
    if k == 2:
        if s.b0 == 1 and s.b1 == 0:
            return s.b2 + 1 if n > 1 else s.b2
        return None
    raise UsageError(f"closed forms exist for k in 0..2, got k={k}")


class PoincarePolynomial(Record):
    """Betti numbers of a product of Hilbert schemes, indexed by degree."""

    __slots__ = ("coefficients",)
    coefficients: tuple[int, ...]

    def __init__(self, coefficients: tuple[int, ...]) -> None:
        if not coefficients or coefficients[0] < 1:
            raise ValueError("constant coefficient must be >= 1")
        if (len(coefficients) - 1) % 4 != 0:
            raise ValueError(
                "length must be 4*n + 1 for a 4n-real-dimensional product"
            )
        (set_coefficients,) = self._setters
        set_coefficients(self, coefficients)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def betti(self, i: int) -> int:
        require_plain_ints(i=i)
        if not 0 <= i <= self.degree:
            raise UsageError(f"degree {i} out of range 0..{self.degree}")
        return self.coefficients[i]

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * c for i, c in enumerate(self.coefficients))

    def is_palindromic(self) -> bool:
        return self.coefficients == self.coefficients[::-1]


def poincare_polynomial_tuple(s: SurfaceInvariants, a: Partition) -> PoincarePolynomial:
    """Poincare polynomial of the product over the parts of ``a`` (Kuenneth).

    One record per parts tuple, stored in the ``by_parts`` of the Betti
    table whose rows it multiplies; only a miss multiplies them.
    """
    table = betti_table(s.b0, s.b1, s.b2)
    polynomial = table.by_parts.get(a.parts)
    if polynomial is None:
        polynomial = table.by_parts.setdefault(
            a.parts, PoincarePolynomial(table.product(a.parts))
        )
    return polynomial


# -- Hodge side ----------------------------------------------------------------


def hodge_p0_series(h10: int, h20: int, truncation: int) -> TruncatedSeries:
    """Series whose coefficient of ``x^p t^n`` is ``h^{p,0}`` of the n-point scheme."""
    require_plain_ints(h10=h10, h20=h20, truncation=truncation)
    if truncation < 1:
        raise UsageError(f"truncation must be >= 1, got {truncation}")
    if h10 < 0 or h20 < 0:
        raise DataError(f"h10 and h20 must be >= 0, got h10={h10}, h20={h20}")
    return hodge_p0_table(h10, h20).series(truncation)


def has_hodge_data(s: SurfaceInvariants) -> bool:
    """Whether the ``h^{p,0}`` series applies: b0 = 1, with h10 and h20 given."""
    return s.b0 == 1 and s.h10 is not None and s.h20 is not None


def require_hodge_data(s: SurfaceInvariants) -> tuple[int, int]:
    """The surface's (h10, h20), or a DataError where ``has_hodge_data`` fails."""
    if not has_hodge_data(s):
        raise DataError(
            f"surface {s.name!r} has no h^(p,0) data: it needs a connected base "
            f"(b0 = 1) with h10 and h20 given, got b0={s.b0}, h10={s.h10}, "
            f"h20={s.h20}; refusing rather than inventing values"
        )
    return s.h10, s.h20


def hodge_p0(s: SurfaceInvariants, n: int, p: int) -> int:
    """``h^{p,0}`` of the n-point Hilbert scheme, exact."""
    h10, h20 = require_hodge_data(s)
    require_plain_ints(n=n, p=p)
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    if not 0 <= p <= 2 * n:
        raise UsageError(f"p must be in 0..{2 * n}, got {p}")
    return hodge_p0_table(h10, h20).rows_upto(n)[n][p]


def hodge_p0_tuple_vector(s: SurfaceInvariants, a: Partition) -> list[int]:
    """All ``h^{p,0}`` of the product, p = 0..2n, via the Kuenneth product."""
    return list(hodge_p0_table(*require_hodge_data(s)).product(a.parts))


class HodgeDiamond(Record):
    """Hodge numbers ``h^{p,q}`` of a variety, 0 <= p, q <= size.

    ``cells`` maps (p, q) to h, as a dict or as the stored ``((p, q), h)``
    pairs of the nonzero cells, sorted; each number is a plain int (DataError).
    """

    __slots__ = ("size", "cells")
    size: int
    cells: tuple[tuple[tuple[int, int], int], ...]

    def __init__(self, size: int, cells: dict[tuple[int, int], int]) -> None:
        cells = dict(cells)
        if {type(size), *map(type, cells.values()), *map(type, chain(*cells))} != {int}:
            raise DataError(f"Hodge diamond needs plain ints, got size {size!r} and {cells!r}")
        if size < 0:
            raise ValueError("size must be nonnegative")
        nonzero = tuple(sorted([cell for cell in cells.items() if cell[1]]))
        for (p, q), value in nonzero:
            if value < 0:
                raise DataError(f"negative Hodge number h[{p},{q}] = {value}")
            if not (0 <= p <= size and 0 <= q <= size):
                raise DataError(f"entry ({p},{q}) outside 0..{size}")
        set_size, set_cells = self._setters
        set_size(self, size)
        set_cells(self, nonzero)

    def h(self, p: int, q: int) -> int:
        return dict(self.cells).get((p, q), 0)

    def entries(self) -> list[tuple[int, int, int]]:
        return [(p, q, v) for (p, q), v in self.cells]

    def is_symmetric(self) -> bool:
        return self.cells == tuple(sorted([((q, p), v) for (p, q), v in self.cells]))

    def betti(self, i: int) -> int:
        return sum(v for (p, q), v in self.cells if p + q == i)

    def total(self) -> int:
        return sum(v for _, v in self.cells)

    def euler_characteristic(self) -> int:
        return sum((-1) ** (p + q) * v for (p, q), v in self.cells)

    def __repr__(self) -> str:
        return f"HodgeDiamond(size={self.size}, entries={len(self.cells)})"


def surface_diamond(s: SurfaceInvariants) -> HodgeDiamond:
    """Full Hodge diamond of the surface from (b2, h10, h20).

    ``h^{1,1} = b2 - 2*h20``; the remaining entries follow from Hodge and
    Serre symmetry.  The surface was validated when it was built.
    """
    h10, h20 = require_hodge_data(s)
    h11 = s.b2 - 2 * h20
    return HodgeDiamond(
        2,
        {
            (0, 0): 1,
            (1, 0): h10,
            (0, 1): h10,
            (2, 0): h20,
            (0, 2): h20,
            (1, 1): h11,
            (2, 1): h10,
            (1, 2): h10,
            (2, 2): 1,
        },
    )


def hodge_polynomial_full(d: HodgeDiamond, n: int) -> HodgeDiamond:
    """Full Hodge diamond of the n-point Hilbert scheme from the surface diamond.

    Reads row n of the infinite product whose ``t^n`` coefficient is the
    Hodge polynomial of the n-point scheme: for each k >= 1 and each (p, q),
    a factor ``(1 + x^{p+k-1} y^{q+k-1} t^k)^{h^{p,q}}`` when p+q is odd and
    ``(1 - x^{p+k-1} y^{q+k-1} t^k)^{-h^{p,q}}`` when p+q is even
    (``series.hodge_grid``).  A diamond no connected surface has (size 2,
    Hodge symmetry, Serre duality, ``h^{0,0} = 1``) is a DataError.
    """
    if d.size != 2:
        raise DataError(f"expected a surface diamond (size 2), got size {d.size}")
    if not d.is_symmetric():
        raise DataError("diamond is not Hodge-symmetric")
    if any(d.h(2 - p, 2 - q) != h for (p, q), h in d.cells):
        raise DataError("diamond fails Serre duality (h[p,q] = h[2-p,2-q])")
    if d.h(0, 0) != 1:
        raise DataError("expected a connected surface diamond (h[0,0] = 1)")
    require_plain_ints(n=n)
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    grid = hodge_grid(tuple(d.entries()), n)
    return HodgeDiamond(2 * n, {(i, j): h for i, row in enumerate(grid) for j, h in enumerate(row)})


# -- Euler side ----------------------------------------------------------------


def euler_char_tuple(s: SurfaceInvariants, a: Partition) -> int:
    """Euler characteristic of the product: chi-coloured partition counts.

    The product is stored per parts tuple in the ``by_parts`` of the Euler
    table of chi; only a miss multiplies the counts, through
    ``colored_count_tuple``, as ``GrowOnlyTable.product`` refuses the
    negative rows that chi < 0 gives.
    """
    stored = euler_table(s.chi).by_parts
    value = stored.get(a.parts)
    if value is None:
        value = stored.setdefault(a.parts, colored_count_tuple(s.chi, a))
    return value

