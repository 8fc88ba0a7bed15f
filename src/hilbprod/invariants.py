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
the factors' Poincare (or ``h^{p,0}``) polynomials, as one big-integer
product by Kronecker substitution (their coefficients are nonnegative),
whose factors the grow-only tables keep packed, once per row and slot width.
The product itself is kept too, once per parts tuple, in the table whose
rows it multiplies, so each partition's vector is computed once and every
later call only copies it out.
Invariants that need Hodge data refuse when h10/h20 are absent instead of
inventing values.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import comb, prod

from .errors import DataError, UsageError
from .partitions import Partition, colored_count_tuple
from .series import (
    GrowOnlyTable,
    TruncatedSeries,
    betti_table,
    euler_table,
    hodge_p0_table,
    hodge_table,
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


def _require_plain_ints(**arguments: object) -> None:
    """Refuse a float or bool argument on every call.

    ``3.0 == 3`` and ``True == 1`` hash alike, so a warm table would serve
    it the int key's rows.
    """
    for name, value in arguments.items():
        if type(value) is not int:
            raise UsageError(f"{name} must be a plain int, got {value!r}")


# -- Poincare side -------------------------------------------------------------


def poincare_series(
    s: SurfaceInvariants, truncation: int, *, z_cap: int | None = None
) -> TruncatedSeries:
    """Betti generating series of the surface's Hilbert schemes of points.

    The coefficient of ``z^k t^n`` is the k-th Betti number of the n-point
    Hilbert scheme, for every n up to the truncation order.  ``z_cap``
    (>= 0) optionally drops all z-degrees above the cap from the returned
    terms; the surviving coefficients are exact.
    """
    _require_plain_ints(truncation=truncation)
    if z_cap is not None:
        _require_plain_ints(z_cap=z_cap)
    if truncation < 1:
        raise UsageError(f"truncation must be >= 1, got {truncation}")
    return betti_table(s.b0, s.b1, s.b2).series(truncation, cap=z_cap)


def euler_series(chi: int, truncation: int) -> TruncatedSeries:
    """Euler-characteristic generating series ``prod_m (1 - q^m)^-chi``."""
    _require_plain_ints(chi=chi, truncation=truncation)
    if truncation < 1:
        raise UsageError(f"truncation must be >= 1, got {truncation}")
    return euler_table(chi).series(truncation)


def betti_closed(s: SurfaceInvariants, n: int, k: int) -> int | None:
    """Closed-form Betti numbers of the n-point Hilbert scheme, k in {0, 1, 2}.

    Degree 2 has a closed form only for connected surfaces with vanishing
    first Betti number; elsewhere the answer is ``None`` (not applicable),
    never a silent zero.
    """
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


@dataclass(frozen=True)
class PoincarePolynomial:
    """Betti numbers of a product of Hilbert schemes, indexed by degree."""

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coefficients or self.coefficients[0] < 1:
            raise ValueError("constant coefficient must be >= 1")
        if (len(self.coefficients) - 1) % 4 != 0:
            raise ValueError(
                "length must be 4*n + 1 for a 4n-real-dimensional product"
            )

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def betti(self, i: int) -> int:
        if not 0 <= i <= self.degree:
            raise UsageError(f"degree {i} out of range 0..{self.degree}")
        return self.coefficients[i]

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * c for i, c in enumerate(self.coefficients))

    def is_palindromic(self) -> bool:
        return self.coefficients == self.coefficients[::-1]


def _kuenneth(table: GrowOnlyTable, parts: tuple[int, ...], length: int) -> list[int]:
    """Coefficients 0..length-1 of the product of the table's rows ``parts``.

    The product is computed once per parts tuple and kept in
    ``table.products``, as the tuple of all its coefficients; every call
    returns a fresh list, cut or zero-padded to ``length``.

    Kronecker substitution: no coefficient of the product of nonnegative
    integer polynomials exceeds the product of the factors' coefficient
    sums, so a slot of ``w`` bytes that holds that bound cannot carry into
    the next.  Each row comes packed with a coefficient per slot from
    ``table.packed``, which packs it once per width; the ints are
    multiplied and the slots of the product are read back (native byte
    order, which ``cast`` reads).  A negative coefficient (a table built
    directly from numbers no valid surface has) is a DataError, on every
    call, and stores nothing.
    """
    coefficients = table.products.get(parts)
    if coefficients is None:
        rows = table.rows_upto(max(parts))
        bound = prod(sum(rows[part]) for part in parts)
        w = 1
        while bound.bit_length() > 8 * w:
            w *= 2
        product = 1
        try:
            for part in parts:
                product *= table.packed(part, w)
        except OverflowError:  # with nonnegative coefficients every slot holds its value
            raise DataError(
                "Kuenneth product of vectors with a negative coefficient; "
                "Betti and h^(p,0) numbers of a valid surface are nonnegative"
            ) from None
        size = sum(len(rows[part]) for part in parts) - len(parts) + 1
        order = sys.byteorder
        buf = product.to_bytes(size * w, order)
        if w <= 8:
            slots = memoryview(buf).cast("BHIQ"[w.bit_length() - 1]).tolist()
        else:
            slots = [int.from_bytes(buf[i:i + w], order) for i in range(0, len(buf), w)]
        coefficients = table.products.setdefault(parts, tuple(slots))
    line = list(coefficients[:length])
    if len(line) < length:
        line += [0] * (length - len(line))
    return line


def poincare_polynomial_tuple(s: SurfaceInvariants, a: Partition) -> PoincarePolynomial:
    """Poincare polynomial of the product over the parts of ``a`` (Kuenneth)."""
    table = betti_table(s.b0, s.b1, s.b2)
    return PoincarePolynomial(tuple(_kuenneth(table, a.parts, 4 * a.n + 1)))


# -- Hodge side ----------------------------------------------------------------


def hodge_p0_series(h10: int, h20: int, truncation: int) -> TruncatedSeries:
    """Series whose coefficient of ``x^p t^n`` is ``h^{p,0}`` of the n-point scheme."""
    _require_plain_ints(h10=h10, h20=h20, truncation=truncation)
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
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    if not 0 <= p <= 2 * n:
        raise UsageError(f"p must be in 0..{2 * n}, got {p}")
    return _hodge_vector(h10, h20, n)[p]


def _hodge_vector(h10: int, h20: int, n: int) -> list[int]:
    return hodge_p0_table(h10, h20).rows_upto(n)[n]


def hodge_p0_tuple_vector(s: SurfaceInvariants, a: Partition) -> list[int]:
    """All ``h^{p,0}`` of the product, p = 0..2n, via the Kuenneth product."""
    h10, h20 = require_hodge_data(s)
    return _kuenneth(hodge_p0_table(h10, h20), a.parts, 2 * a.n + 1)


class HodgeDiamond:
    """Hodge numbers ``h^{p,q}`` of a variety, 0 <= p, q <= size."""

    __slots__ = ("size", "_entries")

    def __init__(self, size: int, entries: dict[tuple[int, int], int]) -> None:
        if size < 0:
            raise ValueError("size must be nonnegative")
        clean = {}
        for (p, q), value in entries.items():
            if value == 0:
                continue
            if value < 0:
                raise DataError(f"negative Hodge number h[{p},{q}] = {value}")
            if not (0 <= p <= size and 0 <= q <= size):
                raise DataError(f"entry ({p},{q}) outside 0..{size}")
            clean[(p, q)] = value
        self.size = size
        self._entries = clean

    def h(self, p: int, q: int) -> int:
        return self._entries.get((p, q), 0)

    def entries(self) -> list[tuple[int, int, int]]:
        return [(p, q, v) for (p, q), v in sorted(self._entries.items())]

    def is_symmetric(self) -> bool:
        return all(self.h(p, q) == self.h(q, p) for (p, q) in self._entries)

    def betti(self, i: int) -> int:
        return sum(
            v for (p, q), v in self._entries.items() if p + q == i
        )

    def total(self) -> int:
        return sum(self._entries.values())

    def euler_characteristic(self) -> int:
        return sum((-1) ** (p + q) * v for (p, q), v in self._entries.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HodgeDiamond):
            return NotImplemented
        return self.size == other.size and self._entries == other._entries

    def __repr__(self) -> str:
        return f"HodgeDiamond(size={self.size}, entries={len(self._entries)})"


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
    ``(1 - x^{p+k-1} y^{q+k-1} t^k)^{-h^{p,q}}`` when p+q is even.  The table
    holds it at ``x = z^L, y = z``, with L the smallest power of two above
    2n, the largest y-degree, so ``h^{i,j}`` is the coefficient of
    ``z^{i L + j}``.
    """
    if d.size != 2:
        raise DataError(f"expected a surface diamond (size 2), got size {d.size}")
    if not d.is_symmetric():
        raise DataError("diamond is not Hodge-symmetric")
    if d.h(0, 0) != 1:
        raise DataError("expected a connected surface diamond (h[0,0] = 1)")
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")

    size = 2 * n
    stride = 1 << size.bit_length()
    line = hodge_table(tuple(d.entries()), stride).rows_upto(n)[n]
    return HodgeDiamond(
        size,
        {(i, j): line[i * stride + j] for i in range(size + 1) for j in range(size + 1)},
    )


# -- Euler side ----------------------------------------------------------------


def euler_char_tuple(s: SurfaceInvariants, a: Partition) -> int:
    """Euler characteristic of the product: chi-coloured partition counts."""
    return colored_count_tuple(s.chi, a)

