"""Goettsche's product over Python integers: one kernel, grow-only tables.

Every generating function of the package specializes Goettsche's product
``F = prod_{m >= 1} prod_j (1 + sign_j z^{slope_j m + offset_j} t^m)^{e_j}``,
a series in t and zero or one variable z: z itself (Betti), none (Euler), or,
for the Hodge diamond, ``x = z^L, y = z`` with a stride L above every
y-degree that is read, so that ``x^i y^j`` lands in ``z^{i L + j}``.  The
kernel builds the products in z (Betti, Hodge diamond).  Their rows ``F_n``,
polynomials in z held as flat lists of ints, follow from the
log-derivative recurrence ``n F_n = sum_{k=1..n} G_k F_{n-k}`` with
``G_k = sum_{m r = k} m e (-1)^{r+1} sign^r z^{r (slope m + offset)}``: G is
sparse and the division by n is exact.  The divisors m of k come from one
grow-only sieve that every kernel shares.  The recurrence runs on
evaluations at ``X = 2^(8w)``, ``z^j`` in slot j: each term of ``G_k`` is a
shift and a small multiple of ``F_{n-k}(X)``, and row n is read back from
the signed slots of ``F_n(X)``.  The slot width w (bytes, a power of two,
from the bound of the majorant ``prod (1 - t^m)^-E``, E = sum |e_j|) only
grows; when it does, the kernel re-evaluates the stored rows.  The product
without z, ``g = prod_m (1 - t^m)^-chi`` (Euler), is a power of
``f = prod_m (1 - t^m)``, which by Euler's pentagonal number theorem has
only the coefficients ``(-1)^j`` at the generalized pentagonal numbers
``j(3j -+ 1)/2``; so ``n g_n = sum_i ((1 - chi) i - n) f_i g_{n-i}``, about
``2 sqrt(2n/3)`` terms, with the pentagonal numbers kept in one grow-only
list that every Euler table shares.  The ``h^{p,0}`` series (y = 0) is a
running sum of its closed form instead.  One ``GrowOnlyTable`` is kept per
(b0, b1, b2), chi, (h10, h20) and (diamond, L): a table at N answers every
n <= N, and a larger request extends it from its last row.

``GrowOnlyTable.series`` returns rows 0..N of a table as a
``TruncatedSeries``, the read-only result of ``poincare_series``,
``euler_series`` and ``hodge_p0_series``: a view of the rows' lines, one
tuple per t-degree (capped in z on request, trailing zeros stripped),
truncated in t only.  It is the one builder of series, so a series has one
form.  The package never multiplies series; the test oracle multiplies
term maps.

``GrowOnlyTable.packed`` also keeps each row of a table packed into one
int, one fixed-width byte slot per coefficient, the form in which
``hilbprod.invariants`` multiplies rows (Kronecker substitution).  A row is
packed at most once per slot width, and, like the rows, the packed ints are
only ever added.  ``GrowOnlyTable.products`` keeps each Kuenneth product of
a table's rows that ``hilbprod.invariants`` has computed, keyed by its parts
tuple, and only grows in the same way.

Coefficients are arbitrary-precision signed integers; there is no floating
point anywhere.  Series are immutable and canonical (no trailing zeros, no
t-degrees beyond the truncation order), so equality is plain structural
equality and values, like table rows, can be shared freely across threads.
"""

from __future__ import annotations

import sys
import threading
from math import comb
from typing import Callable, Iterator, NamedTuple

from .errors import UsageError, require_plain_ints

__all__ = [
    "Exponent",
    "TruncatedSeries",
    "GrowOnlyTable",
    "betti_table",
    "euler_table",
    "euler_rows",
    "hodge_p0_table",
    "hodge_table",
]


class Exponent(NamedTuple):
    """Monomial exponent: degree in t plus a short vector of auxiliary degrees."""

    t_deg: int
    aux_degs: tuple[int, ...] = ()


class TruncatedSeries:
    """Immutable truncated series in t and at most one auxiliary variable (z).

    Coefficients are big integers.  The series holds one line per t-degree
    n <= truncation: a tuple whose entry j is the coefficient of ``t^n z^j``
    (the only entry, without z, is that of ``t^n``), with trailing zeros
    stripped.  Two series are equal iff truncation, aux_count and the lines
    agree, that is iff their nonzero terms do.
    """

    __slots__ = ("truncation", "aux_count", "_lines")

    def __init__(
        self, truncation: int, aux_count: int, lines: tuple[tuple[int, ...], ...]
    ) -> None:
        """Hold ``lines``, which ``GrowOnlyTable.series`` builds canonical."""
        if type(lines) is not tuple or len(lines) != truncation + 1:
            raise TypeError(
                "TruncatedSeries takes one line per t-degree 0..truncation, "
                "as GrowOnlyTable.series builds them"
            )
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "aux_count", aux_count)
        object.__setattr__(self, "_lines", lines)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TruncatedSeries is immutable")

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
        line = self._lines[e.t_deg]
        j = e.aux_degs[0] if self.aux_count else 0
        return line[j] if j < len(line) else 0

    def terms(self) -> Iterator[tuple[Exponent, int]]:
        """Nonzero terms in deterministic order (by t-degree, then aux degree)."""
        one = self.aux_count == 1
        for n, line in enumerate(self._lines):
            for j, c in enumerate(line):
                if c:
                    yield Exponent(n, (j,) if one else ()), c

    def __len__(self) -> int:
        return sum(len(line) - line.count(0) for line in self._lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.truncation == other.truncation
            and self.aux_count == other.aux_count
            and self._lines == other._lines
        )

    def __hash__(self) -> int:
        return hash((self.truncation, self.aux_count, self._lines))

    def dump(self) -> str:
        """Debug dump, one term per line: ``t^a z^b : coeff`` (sorted)."""
        z = " z^{}" if self.aux_count else ""
        return "\n".join([
            f"t^{n}{z.format(j)} : {c}"
            for n, line in enumerate(self._lines)
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


class GrowOnlyTable:
    """Rows ``F_0, F_1, ...`` of a series in t, appended on demand and never changed.

    Row n is a flat list of ints, ``row[j]`` the coefficient of ``z^j``; a
    series without z has the single entry ``row[0]``.  The Hodge diamond
    is a series in z too, through ``x = z^L, y = z``.  ``next_row(rows, n)``
    computes row n from rows 0..n-1.

    Rows are also kept packed, once per slot width: ``packed_rows`` maps
    ``(n, w)`` to the int ``packed(n, w)`` returned.  ``products`` maps a
    parts tuple to the coefficient tuple of the product of those rows,
    written by ``hilbprod.invariants._kuenneth``.  Both only grow and their
    values never change, so a lost race between threads stores the same
    value twice and ``dict.setdefault`` keeps one.
    """

    def __init__(self, aux_count: int, next_row: Callable[[list[Row], int], Row]) -> None:
        self.aux_count = aux_count
        self.rows: list[Row] = [[1]]
        self.packed_rows: dict[tuple[int, int], int] = {}
        self.products: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._next_row = next_row

    def rows_upto(self, n: int) -> list[Row]:
        """The row list, grown so that it holds rows 0..n (callers only read it)."""
        rows = self.rows
        if len(rows) <= n:
            with _GROW_LOCK:
                while len(rows) <= n:
                    rows.append(self._next_row(rows, len(rows)))
        return rows

    def packed(self, n: int, w: int) -> int:
        """Row n as one int, coefficient j in the j-th ``w``-byte slot.

        Slots are unsigned and in native byte order (``sys.byteorder``); a
        coefficient that does not fit, a negative one included, raises
        OverflowError and stores nothing.
        """
        value = self.packed_rows.get((n, w))
        if value is None:
            order = sys.byteorder
            line = self.rows_upto(n)[n]
            value = int.from_bytes(b"".join([c.to_bytes(w, order) for c in line]), order)
            value = self.packed_rows.setdefault((n, w), value)
        return value

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
    """``line[:end]`` as a tuple, without its trailing zeros."""
    end = min(end, len(line))
    while end and not line[end - 1]:
        end -= 1
    return tuple(line[:end])


_DIVISORS: list[list[int]] = [[]]  # entry k: the divisors of k, ascending (none for 0)


def _divisors(k: int) -> list[int]:
    """Divisors of ``k >= 1`` from the shared sieve, grown (at least doubled) on demand."""
    table = _DIVISORS
    if len(table) <= k:
        with _GROW_LOCK:
            start = len(table)
            if start <= k:
                end = max(k + 1, 2 * start)
                grown: list[list[int]] = [[] for _ in range(start, end)]
                for d in range(1, end):
                    for multiple in range(-(-start // d) * d, end, d):
                        grown[multiple - start].append(d)
                table.extend(grown)
    return table[k]


_PENTAGONAL: list[tuple[int, int]] = []  # (j(3j -+ 1)/2, (-1)^j) for j = 1, 2, ..., ascending


def _pentagonal(n: int) -> list[tuple[int, int]]:
    """The shared generalized pentagonal numbers with their signs, grown past ``n``."""
    table = _PENTAGONAL
    if not table or table[-1][0] <= n:
        with _GROW_LOCK:
            while not table or table[-1][0] <= n:
                j = len(table) // 2 + 1
                sign = -1 if j % 2 else 1
                table.append((j * (3 * j - 1) // 2, sign))
                table.append((j * (3 * j + 1) // 2, sign))
    return table


def _log_derivative(factors: list[Factor], k: int) -> list[tuple[int, int]]:
    """``G_k`` of the product as ``(z-degree, coefficient)`` pairs, sorted, no zeros."""
    terms: dict[int, int] = {}
    for m in _divisors(k):
        r = k // m
        for sign, e, slope, offset in factors:
            deg = slope * k + offset * r
            c = -m * e if sign < 0 or r % 2 == 0 else m * e
            terms[deg] = terms.get(deg, 0) + c
    return [(deg, c) for deg, c in sorted(terms.items()) if c]


def _goettsche_rows(factors: list[Factor]):
    """``next_row`` of ``prod_m prod_j (1 + sign_j z^{slope_j m + offset_j} t^m)^{e_j}``.

    Each factor is ``(sign, e, slope, offset)`` with sign in {+1, -1}; every
    z-degree ``slope m + offset`` (m >= 1) must be nonnegative.

    The recurrence runs on evaluations: ``z^j`` goes to slot j of
    ``X = 2^(8w)``, a ring map, so ``n F_n(X) = sum_k G_k(X) F_{n-k}(X)``
    holds as integers and ``// n`` is exact.  Each ``G_k`` term is a shift
    and a small multiple of an earlier ``F_{n-k}(X)``; the dense ``G_k(X)``
    is never formed.  Coefficients may be negative, so slots are signed:
    adding half a slot to every slot makes each digit ``c + 2^(8w-1)``
    nonnegative, and XOR with the same constant turns it into ``c``'s two's
    complement, which the signed cast (w <= 8) or
    ``int.from_bytes(..., signed=True)`` reads.  The majorant
    ``prod_m (1 - t^m)^-E``, E = sum |e|, bounds the absolute coefficient
    sum of row n by ``colored_count(E, n)``, read from ``euler_table(E)``;
    w is the smallest power-of-two byte count with ``2 n bound < 2^(8w)``.
    It never shrinks; when it grows, the evaluations of the stored rows are
    recomputed at the new width.  The product without z is not built here:
    ``_euler_rows`` reads its rows from the pentagonal recurrence.
    """
    factors = [f for f in factors if f[1]]
    # the z-degrees of row n are at most span * n
    span = max((f[2] + max(f[3], 0) for f in factors), default=0)
    majorant = sum(abs(f[1]) for f in factors)
    g: list[list[tuple[int, int]]] = [[]]  # G_k as (z-degree, coefficient)
    w = 0  # slot width in bytes (0 before row 1)
    shifted: list[list[tuple[int, int]]] = [[]]  # G_k as (bit shift, coefficient) at w
    evaluations: list[int] = []  # F_k(X) of the rows so far at w

    def half_slots(count: int) -> int:
        return int.from_bytes((1 << 8 * w - 1).to_bytes(w, "little") * count, "little")

    def evaluate(row: Row) -> int:
        # two's-complement slots, little-endian; the half-slot constant turns
        # their digits into the signed coefficients
        raw = b"".join([c.to_bytes(w, "little", signed=True) for c in row])
        half = half_slots(len(row))
        return (int.from_bytes(raw, "little") ^ half) - half

    def next_row(rows: list[Row], n: int) -> Row:
        nonlocal w
        while len(g) <= n:
            g.append(_log_derivative(factors, len(g)))
        bound = 2 * n * euler_rows(majorant, n)[n][0]
        width = w or 1
        while bound.bit_length() > 8 * width:
            width *= 2
        if width != w:
            w = width
            evaluations[:] = [evaluate(row) for row in rows]
            del shifted[1:]
        bits = 8 * w
        shifted.extend(
            [(bits * deg, c) for deg, c in g[k]] for k in range(len(shifted), n + 1)
        )
        acc = 0
        for k in range(1, n + 1):
            value = evaluations[n - k]
            for shift, c in shifted[k]:
                acc += c * (value << shift)
        value = acc // n
        evaluations.append(value)
        # read row n back: span n + 1 signed slots
        count = span * n + 1
        half = half_slots(count)
        raw = ((value + half) ^ half).to_bytes(count * w, "little")
        if w <= 8 and sys.byteorder == "little":
            return memoryview(raw).cast("bhiq"[w.bit_length() - 1]).tolist()
        return [int.from_bytes(raw[i:i + w], "little", signed=True) for i in range(0, len(raw), w)]

    return next_row


def _euler_rows(chi: int):
    """``next_row`` of ``g = prod_m (1 - t^m)^-chi``, from Euler's pentagonal theorem.

    ``f = prod_m (1 - t^m) = 1 + sum_{j >= 1} (-1)^j (t^{j(3j-1)/2} + t^{j(3j+1)/2})``
    has about ``2 sqrt(2n/3)`` nonzero coefficients up to degree n, and the
    power ``g = f^-chi`` satisfies ``n g_n = sum_i ((1 - chi) i - n) f_i g_{n-i}``
    (Knuth, TAOCP vol. 2, 4.7), a sum over the pentagonal i <= n whose
    division by n is exact.
    """
    weight = 1 - chi

    def next_row(rows: list[Row], n: int) -> Row:
        acc = 0
        for i, sign in _pentagonal(n):
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
_HODGE_TABLES: dict[tuple[tuple[tuple[int, int, int], ...], int], GrowOnlyTable] = {}


def _table(registry: dict, key, aux_count: int, make_next_row) -> GrowOnlyTable:
    """The table of ``key``, made on a miss.

    ``3.0 == 3`` and ``True == 1`` hash alike, so each caller refuses, on
    every call, a key that is not made of plain ints.
    """
    table = registry.get(key)
    if table is None:
        table = registry.setdefault(key, GrowOnlyTable(aux_count, make_next_row()))
    return table


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
    return _table(
        _BETTI_TABLES, (b0, b1, b2), 1, lambda: _goettsche_rows(_betti_factors(b0, b1, b2))
    )


def euler_table(chi: int) -> GrowOnlyTable:
    """Rows (one coefficient each) of ``prod_m (1 - t^m)^-chi``.

    They come from the pentagonal recurrence of ``_euler_rows``, not from
    the kernel, which handles only products in z.
    """
    require_plain_ints(chi=chi)
    return _table(_EULER_TABLES, chi, 0, lambda: _euler_rows(chi))


def euler_rows(chi: int, n: int) -> list[Row]:
    """Rows 0..n (at least) of the Euler table: the fast path of ``colored_count``."""
    if type(chi) is not int or type(n) is not int:
        require_plain_ints(chi=chi, n=n)
    table = _EULER_TABLES.get(chi) or euler_table(chi)
    return table.rows if len(table.rows) > n else table.rows_upto(n)


def hodge_p0_table(h10: int, h20: int) -> GrowOnlyTable:
    """Rows in x of the ``h^{p,0}`` series of a connected surface."""
    require_plain_ints(h10=h10, h20=h20)
    return _table(_HODGE_P0_TABLES, (h10, h20), 1, lambda: _hodge_p0_rows(h10, h20))


def _hodge_factors(diamond: tuple[tuple[int, int, int], ...], stride: int) -> list[Factor]:
    # x^{p+m-1} y^{q+m-1} at x = z^stride, y = z: z^{(stride + 1) m + (p-1) stride + q-1}
    return [
        (1, h, stride + 1, (p - 1) * stride + q - 1) if (p + q) % 2
        else (-1, -h, stride + 1, (p - 1) * stride + q - 1)
        for p, q, h in diamond
    ]


def hodge_table(diamond: tuple[tuple[int, int, int], ...], stride: int) -> GrowOnlyTable:
    """Rows in z of Goettsche's Hodge product for ``(p, q, h^{p,q})`` entries.

    Factor m is ``(1 - (-1)^{p+q} x^{p+m-1} y^{q+m-1} t^m)^{-(-1)^{p+q} h^{p,q}}``
    at ``x = z^stride, y = z``.  Row n holds the coefficient of ``x^i y^j`` at
    ``z^{i stride + j}`` while ``2 n < stride``, which bounds its y-degrees.
    """
    if type(stride) is not int or {type(h) for entry in diamond for h in entry} != {int}:
        raise UsageError(f"table keys must be plain ints, got {(diamond, stride)!r}")
    return _table(
        _HODGE_TABLES,
        (diamond, stride),
        1,
        lambda: _goettsche_rows(_hodge_factors(diamond, stride)),
    )
