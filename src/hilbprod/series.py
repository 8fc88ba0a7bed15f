"""Goettsche's product over Python integers: one kernel, grow-only tables.

Every generating function of the package specializes Goettsche's product
``F = prod_{m >= 1} prod_j (1 + sign_j z^{slope_j m + offset_j} t^m)^{e_j}``,
a series in t and zero or one variable z: z itself (Betti), none (Euler), or,
for the Hodge diamond, ``x = z^L, y = z`` with a stride L above every
y-degree that is read, so that ``x^i y^j`` lands in ``z^{i L + j}``; only
``hodge_grid`` knows that layout, and L is part of the table's key.  The
kernel builds the products in z (Betti, Hodge diamond).  Their rows ``F_n``,
polynomials in z held as flat lists of ints, follow from the
log-derivative recurrence ``n F_n = sum_{k=1..n} G_k F_{n-k}`` with
``G_k = sum_{m r = k} m e (-1)^{r+1} sign^r z^{r (slope m + offset)}``, the
division by n exact.  All factors share one slope s, so the sum regroups
by the divisor r: ``n F_n = sum_{r=1..n} sum_j e_j eps_j(r) z^{(s + o_j) r}
W_r`` with ``W_r = sum_{m=1..n//r} m z^{s r (m-1)} F_{n-mr}`` and
``eps_j(r) = (-1)^{r+1} sign_j^r``; ``G_k`` is never built.  The
recurrence runs on evaluations at ``X = 2^(8w)``, ``z^j`` in slot j: each
``W_r(X)`` is a Horner sum over m of the ``F_{n-mr}(X)``, each factor adds
a shift and a small multiple of it, and row n is read back from the signed
slots of ``F_n(X)``.  The slot width w (bytes,
a power of two, from the bound of the majorant ``prod (1 - t^m)^-E``,
E = sum |e_j|) only grows; when it does, the kernel re-evaluates the stored
rows.  The product
without z, ``g = prod_m (1 - t^m)^-chi`` (Euler), is a power of
``f = prod_m (1 - t^m)``, which by Euler's pentagonal number theorem has
only the coefficients ``(-1)^j`` at the generalized pentagonal numbers
``j(3j -+ 1)/2``; so ``n g_n = sum_i ((1 - chi) i - n) f_i g_{n-i}``, about
``2 sqrt(2n/3)`` terms, with the pentagonal numbers kept in a list that
each Euler table grows for itself.  The ``h^{p,0}`` series (y = 0) is a
running sum of its closed form instead.  One ``GrowOnlyTable`` is kept per
(b0, b1, b2), chi, (h10, h20) and (diamond, L), L the least power of two
above 2n: a table at N answers every n <= N, and a larger request extends
it from its last row.  No table is ever replaced.

``GrowOnlyTable.series`` returns rows 0..N of a table as a
``TruncatedSeries``, the read-only result of ``poincare_series``,
``euler_series`` and ``hodge_p0_series``: a view of the rows' lines, one
tuple per t-degree (capped in z on request, trailing zeros stripped),
truncated in t only.  It is the one builder of series, so a series has one
form.  The package never multiplies series; the test oracle multiplies
term maps.

``GrowOnlyTable.product`` multiplies rows of a table (Kuenneth), as one
big-integer product of the rows packed one coefficient per fixed-width byte
slot (Kronecker substitution).  It keeps each packed row, keyed by row and
slot width, and returns the product without storing it.  A caller that
keeps a product keeps it once, per parts tuple, in the table's
``by_parts``, which no method of the table reads or writes.
The kernel and the product share one slot format, signed and little-endian,
behind ``_slot_width``, ``_pack`` and ``_unpack``: no other module packs
or reads slots.

Coefficients are arbitrary-precision signed integers; there is no floating
point anywhere.  Series are immutable and canonical (no trailing zeros, no
t-degrees beyond the truncation order), so equality is plain structural
equality and values, like table rows, can be shared freely across threads.
"""

from __future__ import annotations

import sys
import threading
from math import comb, prod
from typing import Callable, Iterator, NamedTuple, Sequence

from ._record import Record
from .errors import DataError, UsageError, require_plain_ints

__all__ = [
    "Exponent",
    "TruncatedSeries",
    "GrowOnlyTable",
    "betti_table",
    "euler_table",
    "hodge_p0_table",
    "hodge_grid",
]


class Exponent(NamedTuple):
    """Monomial exponent: degree in t plus a short vector of auxiliary degrees."""

    t_deg: int
    aux_degs: tuple[int, ...] = ()


class TruncatedSeries(Record):
    """Immutable truncated series in t and at most one auxiliary variable (z).

    Coefficients are big integers.  The series holds one line per t-degree
    n <= truncation: a tuple whose entry j is the coefficient of ``t^n z^j``
    (the only entry, without z, is that of ``t^n``), with trailing zeros
    stripped.  Two series are equal iff truncation, aux_count and the lines
    agree, that is iff their nonzero terms do.
    """

    __slots__ = ("truncation", "aux_count", "lines")
    truncation: int
    aux_count: int
    lines: tuple[tuple[int, ...], ...]

    def __init__(
        self, truncation: int, aux_count: int, lines: tuple[tuple[int, ...], ...]
    ) -> None:
        """Hold ``lines``, which ``GrowOnlyTable.series`` builds canonical."""
        if type(lines) is not tuple or len(lines) != truncation + 1:
            raise TypeError(
                "TruncatedSeries takes one line per t-degree 0..truncation, "
                "as GrowOnlyTable.series builds them"
            )
        set_truncation, set_aux_count, set_lines = self._setters
        set_truncation(self, truncation)
        set_aux_count(self, aux_count)
        set_lines(self, lines)

    # -- inspection ---------------------------------------------------------

    def coeff(self, e: Exponent) -> int:
        """Coefficient at ``e``; zero if absent.

        Asking beyond the truncation order is an error: a truncated-away
        coefficient is unknown, not zero.  So is a negative degree.
        """
        if len(e.aux_degs) != self.aux_count:
            raise ValueError(
                f"exponent has {len(e.aux_degs)} auxiliary degrees, "
                f"series declares {self.aux_count}"
            )
        if e.t_deg > self.truncation:
            raise ValueError(
                f"t-degree {e.t_deg} exceeds truncation order {self.truncation}"
            )
        if e.t_deg < 0 or any(d < 0 for d in e.aux_degs):
            raise ValueError(f"negative degree in exponent {tuple(e)}")
        line = self.lines[e.t_deg]
        j = e.aux_degs[0] if self.aux_count else 0
        return line[j] if j < len(line) else 0

    def terms(self) -> Iterator[tuple[Exponent, int]]:
        """Nonzero terms in deterministic order (by t-degree, then aux degree)."""
        one = self.aux_count == 1
        for n, line in enumerate(self.lines):
            for j, c in enumerate(line):
                if c:
                    yield Exponent(n, (j,) if one else ()), c

    def __len__(self) -> int:
        return sum(len(line) - line.count(0) for line in self.lines)

    def dump(self) -> str:
        """Debug dump, one term per line: ``t^a z^b : coeff`` (sorted)."""
        z = " z^{}" if self.aux_count else ""
        return "\n".join([
            f"t^{n}{z.format(j)} : {c}"
            for n, line in enumerate(self.lines)
            for j, c in enumerate(line)
            if c
        ])

    def __repr__(self) -> str:
        return (
            f"TruncatedSeries(truncation={self.truncation}, "
            f"aux_count={self.aux_count}, nterms={len(self)})"
        )


# -- grow-only tables ------------------------------------------------------

_GROW_LOCK = threading.RLock()  # reentrant: a kernel grows its majorant's Euler table
Row = list[int]
Factor = tuple[int, int, int, int]  # (sign, e, slope, offset)
Diamond = tuple[tuple[int, int, int], ...]  # (p, q, h^{p,q}) entries


class GrowOnlyTable:
    """Rows ``F_0, F_1, ...`` of a series in t, appended on demand and never changed.

    Row n is a flat list of ints, ``row[j]`` the coefficient of ``z^j``; a
    series without z has the single entry ``row[0]``.  The Hodge diamond
    is a series in z too, through ``x = z^L, y = z``, one table per L.
    ``next_row(rows, n)`` computes row n from rows 0..n-1.

    ``_packed`` maps ``(n, w)`` to row n packed in ``w``-byte slots.
    ``by_parts`` maps a parts tuple to the value a caller keeps for the
    product of those rows, whole and never a truncated prefix; no method of
    the table reads or writes it.  Both only grow and their values never change, so a lost
    race between threads stores the same value twice and
    ``dict.setdefault`` keeps one.
    """

    def __init__(self, aux_count: int, next_row: Callable[[list[Row], int], Row]) -> None:
        self.aux_count = aux_count
        self.rows: list[Row] = [[1]]
        self.by_parts: dict[tuple[int, ...], object] = {}
        self._packed: dict[tuple[int, int], int] = {}
        self._next_row = next_row

    def rows_upto(self, n: int) -> list[Row]:
        """The row list, grown so that it holds rows 0..n (callers only read it)."""
        rows = self.rows
        if len(rows) <= n:
            with _GROW_LOCK:
                while len(rows) <= n:
                    rows.append(self._next_row(rows, len(rows)))
        return rows

    def product(self, parts: tuple[int, ...]) -> tuple[int, ...]:
        """All coefficients of the product of the rows ``parts`` (Kuenneth).

        Kronecker substitution: no coefficient of a product of nonnegative
        integer polynomials exceeds the product of the factors' coefficient
        sums, so slots of the width ``_slot_width`` gives that bound cannot
        carry into each other.  Each row is packed once per width; the
        product is multiplied on every call and not stored.  A row with a
        negative coefficient (a table built directly from numbers no valid
        surface has) is a DataError when it would be packed, so on every
        call, and that row is not packed.
        """
        rows = self.rows_upto(max(parts))
        w = _slot_width(prod([sum(rows[part]) for part in parts]))
        packed = self._packed
        value = 1
        for part in parts:
            factor = packed.get((part, w))
            if factor is None:
                line = rows[part]
                if min(line) < 0:
                    raise DataError(
                        "Kuenneth product of vectors with a negative coefficient; "
                        "Betti and h^(p,0) numbers of a valid surface are nonnegative"
                    )
                factor = packed.setdefault((part, w), _pack(line, w))
            value *= factor
        size = sum([len(rows[part]) for part in parts]) - len(parts) + 1
        return tuple(_unpack(value, size, w))

    def series(self, truncation: int, *, cap: int | None = None) -> TruncatedSeries:
        """Rows 0..truncation as a series.

        The series holds each row's line as a tuple, cut after degree ``cap``
        and stripped of trailing zeros; nothing is copied term by term.
        """
        if cap is not None and cap < 0:
            raise UsageError(f"degree cap must be >= 0, got {cap}")
        rows = self.rows_upto(truncation)
        end = sys.maxsize if cap is None else cap + 1
        lines = tuple([_stripped(rows[n], end) for n in range(truncation + 1)])
        return TruncatedSeries(truncation, self.aux_count, lines)


def _stripped(line: list[int], end: int) -> tuple[int, ...]:
    """``line[:end]`` as a tuple, without its trailing zeros (one copy of the line)."""
    end = min(end, len(line))
    while end and not line[end - 1]:
        end -= 1
    return tuple(line) if end == len(line) else tuple(line[:end])


# -- the slot codec: rows of ints as one int, one signed w-byte slot each ------


def _slot_width(bound: int, w: int = 1) -> int:
    """The least power-of-two byte count >= ``w`` whose signed slots hold ``|c| <= bound``."""
    while bound.bit_length() >= 8 * w:
        w *= 2
    return w


def _half_slots(count: int, w: int) -> int:
    """``2^(8w-1)`` in each of ``count`` slots of ``w`` bytes."""
    return int.from_bytes((1 << 8 * w - 1).to_bytes(w, "little") * count, "little")


def _pack(line: Sequence[int], w: int) -> int:
    """``line`` evaluated at ``X = 2^(8w)``: coefficient j in slot j, signed.

    The two's-complement slots are written little-endian; XOR with the
    half-slot constant turns each digit into ``c + 2^(8w-1)``, and
    subtracting the constant leaves ``sum_j c_j X^j``.
    """
    raw = b"".join([c.to_bytes(w, "little", signed=True) for c in line])
    half = _half_slots(len(line), w)
    return (int.from_bytes(raw, "little") ^ half) - half


def _unpack(value: int, count: int, w: int) -> list[int]:
    """The ``count`` signed ``w``-byte slots of ``value``, the inverse of ``_pack``.

    Adding half a slot to every slot makes each digit ``c + 2^(8w-1)``
    nonnegative, and XOR with the same constant turns it into ``c``'s two's
    complement, which a signed cast reads (w <= 8 on a little-endian host)
    or ``int.from_bytes(..., signed=True)`` does slot by slot.
    """
    half = _half_slots(count, w)
    raw = ((value + half) ^ half).to_bytes(count * w, "little")
    if w <= 8 and sys.byteorder == "little":
        return memoryview(raw).cast("bhiq"[w.bit_length() - 1]).tolist()
    return [int.from_bytes(raw[i:i + w], "little", signed=True) for i in range(0, len(raw), w)]


def _span(factors: list[Factor]) -> int:
    """The kernel's z-degrees of row n are at most ``span n``; the row has ``span n + 1``."""
    return max((slope + max(offset, 0) for _, e, slope, offset in factors if e), default=0)


def _goettsche_rows(factors: list[Factor]):
    """``next_row`` of ``prod_m prod_j (1 + sign_j z^{slope_j m + offset_j} t^m)^{e_j}``.

    Each factor is ``(sign, e, slope, offset)`` with sign in {+1, -1}; every
    z-degree ``slope m + offset`` (m >= 1) must be nonnegative, and all
    factors must share one slope s (2 for Betti, L + 1 for Hodge), else a
    ValueError.  An empty list gives the rows ``[1], [0], [0], ...``.

    The recurrence ``n F_n = sum_k G_k F_{n-k}`` runs by divisor r:
    ``n F_n = sum_{r=1..n} sum_j e_j eps_j(r) z^{(s + o_j) r} W_r``, with
    ``W_r = sum_{m=1..n//r} m z^{s r (m-1)} F_{n-mr}`` and ``eps_j(r)`` +1
    when sign_j = +1 and r is odd, -1 otherwise.  It runs on evaluations:
    ``z^j`` goes to slot j of ``X = 2^(8w)``, a ring map, so the sum holds
    as integers and ``// n`` is exact.  ``W_r(X)`` is a Horner loop,
    ``W = (W << s r 8w) + m F_{n-mr}(X)`` for m from n // r down to 1, and
    each factor adds ``e_j eps_j(r) W_r(X)`` shifted by ``(s + o_j) r 8w``
    bits: about ``n H_n + J n`` big-int steps per row for J factors, and
    no ``G_k`` is built.  Coefficients may be negative, so the slots are
    the signed ones of ``_pack`` and ``_unpack``.  The majorant
    ``prod_m (1 - t^m)^-E``, E = sum |e|, bounds the absolute coefficient
    sum of row n by ``colored_count(E, n)``, read from ``euler_table(E)``;
    w is ``_slot_width(n bound)``, the smallest power-of-two byte count
    with ``2 n bound < 2^(8w)``.  It never shrinks; when it grows, the
    evaluations of the stored rows are recomputed at the new width.  The
    product without z is not built here: ``_euler_rows`` reads its rows
    from the pentagonal recurrence.
    """
    slopes = {f[2] for f in factors}
    if len(slopes) > 1:
        raise ValueError(f"the kernel's factors must share one slope, got {sorted(slopes)}")
    slope = slopes.pop() if slopes else 0
    factors = [f for f in factors if f[1]]
    span = _span(factors)
    majorant = sum(abs(f[1]) for f in factors)
    # (z-degree per unit of r, e eps(r)) of each factor, for even r and for odd r
    terms = [
        [(slope + offset, e if sign > 0 and odd else -e) for sign, e, _, offset in factors]
        for odd in (False, True)
    ]
    w = 0  # slot width in bytes (0 before row 1)
    evaluations: list[int] = []  # F_k(X) of the rows so far at w

    def next_row(rows: list[Row], n: int) -> Row:
        nonlocal w
        width = _slot_width(n * euler_table(majorant).rows_upto(n)[n][0], w or 1)
        if width != w:
            w = width
            evaluations[:] = [_pack(row, w) for row in rows]
        bits = 8 * w
        acc = 0
        for r in range(1, n + 1):
            step = slope * r * bits
            horner = 0  # W_r(X), m from n // r down to 1
            for m in range(n // r, 0, -1):
                horner = (horner << step) + m * evaluations[n - m * r]
            for degree, c in terms[r & 1]:
                acc += (c * horner) << degree * r * bits
        value = acc // n
        evaluations.append(value)
        # row n has span n + 1 coefficients
        return _unpack(value, span * n + 1, w)

    return next_row


def _euler_rows(chi: int):
    """``next_row`` of ``g = prod_m (1 - t^m)^-chi``, from Euler's pentagonal theorem.

    ``f = prod_m (1 - t^m) = 1 + sum_{j >= 1} (-1)^j (t^{j(3j-1)/2} + t^{j(3j+1)/2})``
    has about ``2 sqrt(2n/3)`` nonzero coefficients up to degree n, and the
    power ``g = f^-chi`` satisfies ``n g_n = sum_i ((1 - chi) i - n) f_i g_{n-i}``
    (Knuth, TAOCP vol. 2, 4.7), a sum over the pentagonal i <= n whose
    division by n is exact.  The pentagonal numbers sit in a list of this
    closure, grown past n by ``next_row``.  Only ``GrowOnlyTable.rows_upto``
    calls ``next_row``, under ``_GROW_LOCK``, so the list needs no lock of
    its own.
    """
    weight = 1 - chi
    pentagonal = [(1, -1), (2, -1)]  # (j(3j -+ 1)/2, (-1)^j) for j = 1, 2, ..., ascending

    def next_row(rows: list[Row], n: int) -> Row:
        while pentagonal[-1][0] <= n:
            j = len(pentagonal) // 2 + 1
            sign = -1 if j % 2 else 1
            pentagonal.extend([(j * (3 * j - 1) // 2, sign), (j * (3 * j + 1) // 2, sign)])
        acc = 0
        for i, sign in pentagonal:
            if i > n:
                break
            acc += sign * (weight * i - n) * rows[n - i][0]
        return [acc // n]

    return next_row


def _hodge_p0_rows(h10: int, h20: int):
    """``next_row`` of ``(1-t)^-1 (1+xt)^h10 (1-x^2 t)^-h20``, the y = 0 Hodge product.

    Row n adds to row n - 1 the t^n coefficient of the last two factors,
    ``sum_i C(h10, n - i) C(h20 + i - 1, i) x^{n + i}`` (at most h10 + 1 terms).
    """

    def next_row(rows: list[Row], n: int) -> Row:
        line = rows[n - 1] + [0, 0]
        for i in range(max(0, n - h10), n + 1):
            line[n + i] += comb(h10, n - i) * (comb(h20 + i - 1, i) if i else 1)
        return line

    return next_row


_BETTI_TABLES: dict[tuple[int, int, int], GrowOnlyTable] = {}
_EULER_TABLES: dict[int, GrowOnlyTable] = {}
_HODGE_P0_TABLES: dict[tuple[int, int], GrowOnlyTable] = {}
_HODGE_TABLES: dict[tuple[Diamond, int], GrowOnlyTable] = {}


# Each accessor below refuses, on every call, a key that is not made of plain
# ints (``3.0 == 3`` and ``True == 1`` hash alike), then returns the registry's
# table; only a miss makes one, and ``setdefault`` keeps the first of a race.
# The registries are read as module globals on each call: tests swap them.


def _betti_factors(b0: int, b1: int, b2: int) -> list[Factor]:
    return [(1, b1, 2, -1), (1, b1, 2, 1)] + [
        (-1, -b, 2, o) for b, o in ((b0, -2), (b2, 0), (b0, 2))
    ]


def betti_table(b0: int, b1: int, b2: int) -> GrowOnlyTable:
    """Rows in z of Goettsche's Betti product for Betti numbers b0, b1, b2.

    Factor m is ``(1 + z^{2m-1} t^m)^b1 (1 + z^{2m+1} t^m)^b1
    (1 - z^{2m-2} t^m)^-b0 (1 - z^{2m} t^m)^-b2 (1 - z^{2m+2} t^m)^-b0``.
    """
    if type(b0) is not int or type(b1) is not int or type(b2) is not int:
        require_plain_ints(b0=b0, b1=b1, b2=b2)
    key = (b0, b1, b2)
    table = _BETTI_TABLES.get(key)
    if table is None:
        next_row = _goettsche_rows(_betti_factors(b0, b1, b2))
        table = _BETTI_TABLES.setdefault(key, GrowOnlyTable(1, next_row))
    return table


def euler_table(chi: int) -> GrowOnlyTable:
    """Rows (one coefficient each) of ``prod_m (1 - t^m)^-chi``.

    They come from the pentagonal recurrence of ``_euler_rows``, not from
    the kernel, which handles only products in z.
    """
    if type(chi) is not int:
        require_plain_ints(chi=chi)
    table = _EULER_TABLES.get(chi)
    if table is None:
        table = _EULER_TABLES.setdefault(chi, GrowOnlyTable(0, _euler_rows(chi)))
    return table


def hodge_p0_table(h10: int, h20: int) -> GrowOnlyTable:
    """Rows in x of the ``h^{p,0}`` series of a connected surface."""
    if type(h10) is not int or type(h20) is not int:
        require_plain_ints(h10=h10, h20=h20)
    key = (h10, h20)
    table = _HODGE_P0_TABLES.get(key)
    if table is None:
        table = _HODGE_P0_TABLES.setdefault(key, GrowOnlyTable(1, _hodge_p0_rows(h10, h20)))
    return table


def _hodge_factors(diamond: Diamond, stride: int) -> list[Factor]:
    """The factors at ``x = z^L, y = z``, L = ``stride``: ``x^{p+m-1} y^{q+m-1}``
    is ``z^{(L + 1) m + (p-1) L + q-1}``, every slope L + 1."""
    return [
        (1, h, stride + 1, (p - 1) * stride + q - 1) if (p + q) % 2
        else (-1, -h, stride + 1, (p - 1) * stride + q - 1)
        for p, q, h in diamond
    ]


def hodge_grid(diamond: Diamond, n: int) -> list[Row]:
    """``h^{i,j}``, 0 <= i, j <= 2n, in row n of Goettsche's Hodge product.

    Factor m is ``(1 - (-1)^{p+q} x^{p+m-1} y^{q+m-1} t^m)^{-(-1)^{p+q} h^{p,q}}``
    per ``(p, q, h^{p,q})`` entry.  The table of (diamond, L), L the least
    power of two above 2n, holds ``h^{i,j}`` at ``z^{iL + j}`` (``x = z^L,
    y = z``), one-to-one because 2n bounds the y-degrees when p, q <= 2.
    The rows of every n with that L come from the one table; another L is
    another table, grown from row 0.
    """
    if type(n) is not int or {type(h) for entry in diamond for h in entry} != {int}:
        raise UsageError(f"table keys must be plain ints, got {(diamond, n)!r}")
    if n < 0 or any(not (0 <= p <= 2 and 0 <= q <= 2) for p, q, _ in diamond):
        raise UsageError(f"need n >= 0 and entries (p, q, h), p, q in 0..2: {(diamond, n)!r}")
    size = 2 * n
    stride = 1 << size.bit_length()
    key = (diamond, stride)
    table = _HODGE_TABLES.get(key)
    if table is None:
        next_row = _goettsche_rows(_hodge_factors(diamond, stride))
        table = _HODGE_TABLES.setdefault(key, GrowOnlyTable(1, next_row))
    # a diamond without h^{2,2} has shorter rows: the rest of the window is zero
    line = table.rows_upto(n)[n] + [0] * ((size + 1) * stride)
    return [line[i * stride:i * stride + size + 1] for i in range(size + 1)]
