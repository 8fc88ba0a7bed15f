"""Non-isomorphism decisions for products of Hilbert schemes of points.

Two products attached to distinct partitions of the same integer are compared
in two complementary ways:

* direct invariant comparison, tier by tier in straight-line code: the
  Euler characteristic, the full Betti vector, then the ``h^{p,0}`` vector
  when the surface has Hodge data (b0 = 1, with h10 and h20 given); the
  first entry that differs is the witness and the actual certificate;
* structural rules for the two rigid classes (K3 bases, and generalized
  Kummer varieties over an abelian base), where distinct partitions are never
  isomorphic by uniqueness of the decomposition into irreducible
  holomorphic-symplectic factors.

Each branch of ``decide`` sets only the outcome, witness, rules and notes;
one ``Verdict`` is built from them at the end.  Sufficient-condition rules
whose hypotheses hold are attached to the verdict as explanation metadata;
they never substitute for a computed witness except in the two structural
classes.  "Isomorphic" is only ever issued for equal partitions; equal
computed invariants yield "Unknown", because these invariants are not
complete.

Records are immutable, so verdicts share them: a rule whose detail is
built from numbers alone comes from a ``functools.cache`` builder whose
parameters are exactly those numbers, so it is built once per detail; the
Betti tier reads the one ``PoincarePolynomial`` its table keeps per parts
tuple, and a majorization detail reads the one text of each partition.
"""

from __future__ import annotations

import enum
from functools import cache
from itertools import groupby
from math import comb, prod
from typing import Any, Mapping

from ._record import Record
from .errors import DimensionMismatchError
from .invariants import (
    euler_char_tuple,
    has_hodge_data,
    hodge_p0_tuple_vector,
    poincare_polynomial_tuple,
)
from .partitions import Majorization, Partition, _majorizes_parts
from .surfaces import StructuralClass, SurfaceInvariants

__all__ = [
    "Outcome",
    "Witness",
    "FiredRule",
    "Verdict",
    "AutShape",
    "decide",
    "aut_shape",
    "kummer_reinterpretation",
    "RULE_STATEMENTS",
]


class Outcome(enum.Enum):
    ISOMORPHIC = "isomorphic"
    NON_ISOMORPHIC = "non_isomorphic"
    UNKNOWN = "unknown"


# rule identifiers -> the mathematical sufficient condition they certify
RULE_STATEMENTS: dict[str, str] = {
    "k3-product-rigidity": (
        "over a K3 base the decomposition into irreducible holomorphic-"
        "symplectic factors is unique, so distinct partitions never give "
        "isomorphic products"
    ),
    "kummer-product-rigidity": (
        "products of generalized Kummer varieties over an abelian surface "
        "decompose uniquely into irreducible holomorphic-symplectic factors, "
        "so distinct partitions never give isomorphic products"
    ),
    "diff-length-min-parts": (
        "partitions of different lengths with every part > 1: the products' "
        "low-degree Betti data differs strictly (b1 if b1 > 0, else b2, on a "
        "connected base; on a disconnected base b0, and only fired where it "
        "differs)"
    ),
    "diff-length-ones-margin": (
        "connected base (b0 = 1), partitions of different lengths r < s with "
        "k resp. l unit parts: non-isomorphic when k >= l, or when k < l and "
        "l - k != (s - r) * (b2 + 1)"
    ),
    "same-length-disconnected": (
        "disconnected base (b0 > 1), same-length partitions whose zeroth Betti "
        "binomial products prod C(n_i + b0 - 1, b0 - 1) differ (they can "
        "coincide, e.g. (1,5,5) vs (2,2,7) at b0 = 2): the b0 differ strictly"
    ),
    "same-length-first-betti": (
        "connected base with b1 >= 2 * (min of the first differing parts + 1): "
        "the h^{p,0} Hodge numbers at p = min + 1 differ"
    ),
    "majorization-euler": (
        "Euler characteristic >= 3 and one partition strictly majorizes the "
        "other (same length): the coloured-partition Euler counts differ "
        "strictly"
    ),
    "majorization-euler-b1-zero": (
        "connected base with b1 = 0 (so chi = 2 + b2 >= 3): strict "
        "majorization already separates the Euler counts"
    ),
}


class Witness(Record):
    __slots__ = ("invariant", "index", "value_a", "value_b")
    invariant: str
    index: int | None
    value_a: int
    value_b: int

    def __init__(self, invariant: str, index: int | None, value_a: int, value_b: int) -> None:
        set_invariant, set_index, set_value_a, set_value_b = self._setters
        set_invariant(self, invariant)
        set_index(self, index)
        set_value_a(self, value_a)
        set_value_b(self, value_b)

    def to_dict(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "index": self.index,
            "value_a": self.value_a,
            "value_b": self.value_b,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Witness":
        return cls(d["invariant"], d["index"], d["value_a"], d["value_b"])


class FiredRule(Record):
    __slots__ = ("rule_id", "detail")
    rule_id: str
    detail: str

    def __init__(self, rule_id: str, detail: str) -> None:
        if rule_id not in RULE_STATEMENTS:
            raise ValueError(f"unknown rule id {rule_id!r}")
        set_rule_id, set_detail = self._setters
        set_rule_id(self, rule_id)
        set_detail(self, detail)

    @property
    def statement(self) -> str:
        return RULE_STATEMENTS[self.rule_id]

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule_id": self.rule_id,
            "statement": self.statement,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "FiredRule":
        return cls(d["rule_id"], d.get("detail", ""))


class Verdict(Record):
    __slots__ = ("outcome", "surface", "a", "b", "witness", "rules_fired", "notes")
    outcome: Outcome
    surface: str
    a: Partition
    b: Partition
    witness: Witness | None
    rules_fired: tuple[FiredRule, ...]
    notes: tuple[str, ...]

    def __init__(
        self,
        outcome: Outcome,
        surface: str,
        a: Partition,
        b: Partition,
        witness: Witness | None,
        rules_fired: tuple[FiredRule, ...],
        notes: tuple[str, ...],
    ) -> None:
        set_outcome, set_surface, set_a, set_b, set_witness, set_rules, set_notes = (
            self._setters
        )
        set_outcome(self, outcome)
        set_surface(self, surface)
        set_a(self, a)
        set_b(self, b)
        set_witness(self, witness)
        set_rules(self, rules_fired)
        set_notes(self, notes)

    def to_dict(self) -> dict[str, Any]:
        return {
            "outcome": self.outcome.value,
            "surface": self.surface,
            "a": list(self.a.parts),
            "b": list(self.b.parts),
            "witness": self.witness.to_dict() if self.witness else None,
            "rules_fired": [r.to_dict() for r in self.rules_fired],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Verdict":
        return cls(
            outcome=Outcome(d["outcome"]),
            surface=d["surface"],
            a=Partition(tuple(d["a"])),
            b=Partition(tuple(d["b"])),
            witness=Witness.from_dict(d["witness"]) if d.get("witness") else None,
            rules_fired=tuple(FiredRule.from_dict(r) for r in d["rules_fired"]),
            notes=tuple(d["notes"]),
        )


# the two rules whose detail never changes, built once and shared: records
# are immutable
_K3_RULE = FiredRule("k3-product-rigidity", "base surface is K3")
_KUMMER_RULES = (FiredRule("kummer-product-rigidity", "base is an abelian surface"),)

_B0_DETAIL = "b0 = {} > 1, zeroth Betti numbers {} vs {}"


# the four rules whose detail is built from numbers alone: each builder's
# parameters are the numbers its detail prints, so the cache keeps one
# record per detail, shared by every pair that prints it


@cache
def _min_parts_rule(r: int, s_len: int, b0: int, b0_a: int, b0_b: int) -> FiredRule:
    detail = f"lengths {r} < {s_len}, all parts > 1"
    if b0 > 1:
        detail += "; " + _B0_DETAIL.format(b0, b0_a, b0_b)
    return FiredRule("diff-length-min-parts", detail)


@cache
def _ones_margin_rule(k: int, l: int, margin: int | None, gap: int | None) -> FiredRule:
    """The margin is given where the detail prints it (k < l), and the
    predicted degree-2 Betti gap where it does too (k < l and b1 = 0)."""
    if margin is None:
        detail = f"unit parts {k} (shorter) >= {l} (longer)"
    else:
        detail = f"unit parts {k} < {l}, l - k = {l - k} != {margin} = (s-r)*(b2+1)"
        if gap is not None:
            detail += f"; predicted degree-2 Betti gap (longer - shorter) = {gap}"
    return FiredRule("diff-length-ones-margin", detail)


@cache
def _disconnected_rule(b0: int, b0_a: int, b0_b: int) -> FiredRule:
    return FiredRule("same-length-disconnected", _B0_DETAIL.format(b0, b0_a, b0_b))


@cache
def _first_betti_rule(x: int, y: int, j: int, b1: int) -> FiredRule:
    detail = f"first differing parts {x} vs {y} at index {j}; b1 = {b1} >= {2 * (min(x, y) + 1)}"
    return FiredRule("same-length-first-betti", detail)


def _annotate_rules(
    s: SurfaceInvariants, a: Partition, b: Partition
) -> list[FiredRule]:
    """Every sufficient-condition rule whose hypotheses hold for (s, a, b).

    Hypotheses only involve the partitions' shapes and the surface numbers,
    never the series machinery.  ``decide`` runs this on every pair, so each
    rule's numeric hypothesis is tested first: the majorization test, the
    first-difference search and a rule's detail text run only where that
    rule can fire.  A rule whose detail is built from numbers alone comes
    from its cached builder, which formats the detail only on a miss.
    """
    fired: list[FiredRule] = []
    pa, pb = a.parts, b.parts
    len_a, len_b = len(pa), len(pb)
    b0, b1 = s.b0, s.b1
    # zeroth Betti numbers: on a disconnected base the b0 rules claim they
    # differ; no other base fires a b0 rule
    b0_a = b0_b = 1
    if b0 > 1:
        b0_a, b0_b = (prod(comb(part + b0 - 1, b0 - 1) for part in q) for q in (pa, pb))
    if s.structural_class is StructuralClass.K3:
        fired.append(_K3_RULE)
    if len_a != len_b:
        if len_a < len_b:
            short, long_, r, s_len = pa, pb, len_a, len_b
        else:
            short, long_, r, s_len = pb, pa, len_b, len_a
        if short[0] > 1 and long_[0] > 1 and (b0 == 1 or b0_a != b0_b):
            fired.append(_min_parts_rule(r, s_len, b0, b0_a, b0_b))
        if b0 == 1:
            k, l = short.count(1), long_.count(1)
            margin = (s_len - r) * (s.b2 + 1)  # the degree-2 Betti gap
            if k >= l:
                fired.append(_ones_margin_rule(k, l, None, None))
            elif l - k != margin:
                gap = margin + k - l if b1 == 0 else None
                fired.append(_ones_margin_rule(k, l, margin, gap))
        return fired
    if b0_a != b0_b:
        fired.append(_disconnected_rule(b0, b0_a, b0_b))
    # the least first differing part is >= 1, so the rule needs b1 >= 4
    if b0 == 1 and b1 >= 4:
        j = 0
        while pa[j] == pb[j]:
            j += 1
        x, y = pa[j], pb[j]
        if b1 >= 2 * (min(x, y) + 1):
            fired.append(_first_betti_rule(x, y, j, b1))
    # a valid surface has b2 >= 1, so b0 = 1, b1 = 0 gives chi = 2 + b2 >= 3:
    # both majorization rules need chi >= 3
    if s.chi >= 3:
        order = _majorizes_parts(pb, pa)
        if order in (Majorization.STRICTLY_MAJORIZES, Majorization.MAJORIZED_BY):
            bigger, smaller = (
                (b, a) if order is Majorization.STRICTLY_MAJORIZES else (a, b)
            )
            fired.append(
                FiredRule(
                    "majorization-euler",
                    f"chi = {s.chi} >= 3 and {bigger} strictly majorizes "
                    f"{smaller}",
                )
            )
            if b0 == 1 and b1 == 0:
                fired.append(
                    FiredRule(
                        "majorization-euler-b1-zero",
                        f"b0 = 1, b1 = 0 and {bigger} strictly majorizes "
                        f"{smaller}",
                    )
                )
    return fired


_NOT_COMPLETE = (
    "computed invariants do not separate the products; they are not "
    "complete invariants, so no isomorphism is asserted either"
)


def _compare_invariants(
    s: SurfaceInvariants, a: Partition, b: Partition
) -> tuple[Witness | None, tuple[str, ...]]:
    """The first entry that differs, tier by tier, or the notes of an unknown.

    The Euler characteristic's witness has no index; the ``h^{p,0}`` tier
    runs only where the surface has Hodge data.  Each tier's two values are
    compared whole, and only the tier that differs is walked to its first
    differing entry.  The invariant functions are read as module globals at
    call time, so monkeypatching this module reaches them.
    """
    x, y = euler_char_tuple(s, a), euler_char_tuple(s, b)
    if x != y:
        return Witness("euler_characteristic", None, x, y), ()
    invariant = "betti"
    x = poincare_polynomial_tuple(s, a).coefficients
    y = poincare_polynomial_tuple(s, b).coefficients
    if x == y:
        if not has_hodge_data(s):
            return None, (
                "Euler and Betti data agree",
                "Hodge comparison skipped: surface carries no h10/h20 data",
                _NOT_COMPLETE,
            )
        invariant = "hodge_p0"
        x, y = hodge_p0_tuple_vector(s, a), hodge_p0_tuple_vector(s, b)
        if x == y:
            return None, ("Euler, Betti and h^(p,0) data all agree", _NOT_COMPLETE)
    i = 0
    while x[i] == y[i]:
        i += 1
    return Witness(invariant, i, x[i], y[i]), ()


def decide(s: SurfaceInvariants, a: Partition, b: Partition) -> Verdict:
    """Decide non-isomorphism of the two products attached to ``a`` and ``b``."""
    pa, pb = a.parts, b.parts
    if sum(pa) != sum(pb):
        raise DimensionMismatchError(
            f"partitions sum to {a.n} and {b.n}: the products have real "
            f"dimensions {4 * a.n} and {4 * b.n} and are never isomorphic; "
            "this engine only compares partitions of the same integer"
        )
    outcome = Outcome.NON_ISOMORPHIC
    witness: Witness | None = None
    rules: tuple[FiredRule, ...] = ()
    notes: tuple[str, ...]
    structural_class = s.structural_class
    if pa == pb:
        outcome = Outcome.ISOMORPHIC
        notes = ("equal partitions give the identical product",)
    elif structural_class is StructuralClass.ABELIAN_FOR_KUMMER:
        rules = _KUMMER_RULES
        notes = (
            "Kummer mode: each part n denotes the 2n-dimensional generalized "
            "Kummer variety of the abelian base, not a Hilbert scheme",
            "invariant comparison skipped: the series machinery computes "
            "Hilbert-scheme data, not Kummer data",
        )
        if 1 in pa or 1 in pb:
            notes += (
                "caveat: a part equal to 1 denotes a 2-dimensional Kummer "
                "variety, which is a K3 surface",
            )
    else:
        rules = tuple(_annotate_rules(s, a, b))
        if structural_class is StructuralClass.K3:
            notes = ("decided structurally; invariant comparison skipped",)
        else:
            witness, notes = _compare_invariants(s, a, b)
            if witness is None:
                outcome = Outcome.UNKNOWN
    return Verdict(outcome, s.name, a, b, witness, rules, notes)


def kummer_reinterpretation(s: SurfaceInvariants) -> SurfaceInvariants:
    """Retag an abelian surface as the base of generalized Kummer varieties.

    Any other surface is a DataError: the retagged surface fails the
    abelian-class check when it is built.
    """
    return s.replace(
        name=f"kummer({s.name})",
        structural_class=StructuralClass.ABELIAN_FOR_KUMMER,
    )


class AutShape(Record):
    """Multiplicity profile of a partition: distinct parts with repeat counts."""

    __slots__ = ("factors",)
    factors: tuple[tuple[int, int], ...]

    def __init__(self, factors: tuple[tuple[int, int], ...]) -> None:
        (set_factors,) = self._setters
        set_factors(self, factors)

    def render(self) -> str:
        pieces = []
        for value, mult in self.factors:
            if mult == 1:
                pieces.append(f"Aut(S^[{value}])")
            else:
                pieces.append(f"Aut(S^[{value}])^{mult} ⋊ S_{mult}")
        return " × ".join(pieces)

    def to_dict(self) -> dict[str, Any]:
        return {
            "factors": [list(f) for f in self.factors],
            "rendered": self.render(),
        }


def aut_shape(a: Partition) -> AutShape:
    """Group equal parts into (part, multiplicity) factors, parts increasing.

    The automorphism group of the product splits accordingly: one wreath-type
    factor ``Aut(S^[n])^l x| S_l`` per repeated part.  Proved for the K3 and
    Kummer structural classes; formal (unverified) shape otherwise.
    """
    factors = tuple(
        (value, len(list(group))) for value, group in groupby(a.parts)
    )
    return AutShape(factors)
