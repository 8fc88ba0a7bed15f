"""Integer partitions, the majorization order, and k-coloured partition counts.

Partitions are written with weakly increasing parts, ``n_1 <= ... <= n_r``.
Majorization follows the same convention: ``b`` majorizes ``a`` when every
prefix sum of ``a`` is at most the corresponding prefix sum of ``b``.  Note
this is the mirror image of the classical convention on decreasing tuples, so
comparisons here are implemented literally against the prefix-sum definition
on increasing tuples; e.g. (2,2) strictly majorizes (1,3).

``enumerate_partitions(n)`` lists the partitions of n in ascending
lexicographic order from one iterative generator (Kelleher and O'Sullivan's
accelAsc), with no recursion and no cache: every call enumerates afresh, so
memory stays at one list of p(n) partitions.

``colored_count(k, n)`` is the coefficient of q^n in the infinite product
``prod_m (1 - q^m)^-k``, the number of partitions of n with parts in k colours
when k >= 1.  Negative and zero k are defined by the same series (the product
then has nonnegative exponents and the coefficients may be negative), which is
what lets Euler characteristics chi(S) <= 0 flow through the same identity.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator

from .errors import UsageError
from .series import euler_rows

__all__ = [
    "Partition",
    "Majorization",
    "enumerate_partitions",
    "partitions_by_length",
    "majorizes",
    "colored_count",
    "colored_count_tuple",
]


def int_literal(text: str) -> int:
    """``int(text)`` for a sign and ASCII digits only: not ``1_0``, no other digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(f"not an integer literal: {text!r}")
    return int(text)


def int_list(text: str, what: str) -> list[int]:
    """The ints of the comma-separated ``text``; a UsageError names it ``what``."""
    items = [item.strip() for item in text.split(",")]
    if items == [""]:
        raise UsageError(f"empty {what}: {text!r}")
    if "" in items:
        raise UsageError(f"empty item in {what}: {text!r}")
    try:
        return [int_literal(item) for item in items]
    except ValueError as exc:
        raise UsageError(f"invalid {what}: {text!r}") from exc


@dataclass(frozen=True, order=True)
class Partition:
    """A partition of a positive integer, parts weakly increasing."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        # whole-tuple passes; enumerated partitions skip them (``_trusted``)
        parts = self.parts
        if not parts:
            raise ValueError("a partition needs at least one part")
        if not {*map(type, parts)} <= {int} or min(parts) < 1:
            raise ValueError(f"parts must be positive integers, got {parts}")
        if list(parts) != sorted(parts):
            raise ValueError(f"parts must be weakly increasing, got {parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        """Build from parts given in any order (canonicalized to increasing)."""
        return cls(tuple(sorted(parts)))

    @classmethod
    def parse(cls, text: str) -> tuple["Partition", bool]:
        """Parse a comma-separated literal like ``"1,3"`` (any order).

        Returns the canonical partition and whether the input was reordered.
        """
        values = int_list(text, "partition literal")
        if any(v < 1 for v in values):
            raise UsageError(f"partition parts must be positive: {text!r}")
        ordered = sorted(values)
        return cls(tuple(ordered)), ordered != values

    def render(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def __str__(self) -> str:
        return f"({self.render()})"


class Majorization(enum.Enum):
    """Outcome of comparing b against a in the majorization order."""

    STRICTLY_MAJORIZES = "strictly_majorizes"
    EQUAL = "equal"
    MAJORIZED_BY = "majorized_by"
    INCOMPARABLE = "incomparable"


def _ascending_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``n >= 1`` as increasing tuples, lexicographic order.

    Kelleher and O'Sullivan's accelAsc: iterative, over one list ``a``.  Each
    pass raises the second-last part of the previous partition by one to get
    ``x``, keeps the parts before it as the head ``a[:k]`` and ``y = n -
    sum(head) - x``.  It appends parts of size ``x`` to the head while
    ``2 * x <= y``, then yields every two-part tail ``(x, y)`` with
    ``x <= y`` and last the one-part tail ``x + y``.
    """
    a = [0] * (n + 1)
    k = 1
    y = n - 1
    while k:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        tail = k + 1
        while x <= y:
            a[k] = x
            a[tail] = y
            yield tuple(a[: k + 2])
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        yield tuple(a[: k + 1])


def _trusted(parts: tuple[int, ...]) -> Partition:
    """``Partition(parts)`` without the checks, for the generator's valid tuples."""
    partition = object.__new__(Partition)
    object.__setattr__(partition, "parts", parts)
    return partition


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of ``n >= 1`` in ascending lexicographic order."""
    if n < 1:
        raise UsageError(f"n must be >= 1, got {n}")
    return list(map(_trusted, _ascending_partitions(n)))


def partitions_by_length(n: int) -> dict[int, list[Partition]]:
    """Partitions of ``n`` bucketed by length, each bucket in lexicographic order."""
    buckets: dict[int, list[Partition]] = {}
    for p in enumerate_partitions(n):
        buckets.setdefault(len(p.parts), []).append(p)
    return buckets


def majorizes(b: Partition, a: Partition) -> Majorization:
    """Compare ``b`` against ``a`` under the increasing-tuple prefix-sum order.

    Defined only for partitions of the same integer and the same length.
    Both are checked on the way: the lengths first, n from the prefix sums.
    """
    pa, pb = a.parts, b.parts
    if len(pa) != len(pb):
        if a.n != b.n:
            raise _n_mismatch(a, b)
        raise UsageError(
            f"majorization needs partitions of the same length: "
            f"{len(pa)} vs {len(pb)}"
        )
    if pa == pb:
        return Majorization.EQUAL
    b_ge_a = True  # prefix sums of a <= prefix sums of b throughout
    a_ge_b = True
    sum_a = sum_b = 0
    for x, y in zip(pa[:-1], pb[:-1]):
        sum_a += x
        sum_b += y
        if sum_a > sum_b:
            b_ge_a = False
        if sum_b > sum_a:
            a_ge_b = False
    if sum_a + pa[-1] != sum_b + pb[-1]:
        raise _n_mismatch(a, b)
    if b_ge_a:
        return Majorization.STRICTLY_MAJORIZES
    if a_ge_b:
        return Majorization.MAJORIZED_BY
    return Majorization.INCOMPARABLE


def _n_mismatch(a: Partition, b: Partition) -> UsageError:
    return UsageError(
        f"majorization needs partitions of the same integer: {a.n} vs {b.n}"
    )


# -- k-coloured partition counts ---------------------------------------------


def colored_count(k: int, n: int) -> int:
    """Coefficient of q^n in ``prod_m (1 - q^m)^-k``, exact.

    For k >= 1 this counts the k-coloured partitions of n; k <= 0 is defined
    by the same series and may give zero or negative values.  Read from the
    grow-only Euler table of ``hilbprod.series``.
    """
    if type(k) is not int or type(n) is not int:
        raise UsageError(f"k and n must be plain ints, got k={k!r}, n={n!r}")
    if n < 0:
        raise UsageError(f"n must be nonnegative, got {n}")
    return euler_rows(k, n)[n][0]


def colored_count_tuple(k: int, a: Partition) -> int:
    """Product of ``colored_count(k, part)`` over the parts of ``a``."""
    if type(k) is not int:
        raise UsageError(f"k must be a plain int, got {k!r}")
    rows = euler_rows(k, a.parts[-1])
    result = 1
    for part in a.parts:
        result *= rows[part][0]
    return result
