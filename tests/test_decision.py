"""Decision engine: structural rules, invariant witnesses, rule annotation."""

from __future__ import annotations

import collections
import hashlib
import itertools
import json
import re
from math import comb, prod

import pytest

import hilbprod.decision as decision
from hilbprod.decision import (
    FiredRule,
    Outcome,
    Verdict,
    aut_shape,
    decide,
    kummer_reinterpretation,
)
from hilbprod.errors import DataError, DimensionMismatchError
from hilbprod.invariants import (
    euler_char_tuple,
    hodge_p0_tuple_vector,
    poincare_polynomial_tuple,
)
from hilbprod.partitions import Partition, enumerate_partitions, partitions_by_length
from hilbprod.series import betti_table, hodge_p0_table
from hilbprod.surfaces import (
    StructuralClass,
    SurfaceInvariants,
    catalog_lookup,
    load_catalog,
)
from conftest import fresh_tables, synthetic, valid_only
from product_oracle import dense_kuenneth

K3 = catalog_lookup("k3")
QUINTIC = catalog_lookup("quintic")
ABELIAN = catalog_lookup("abelian")
BIELLIPTIC = catalog_lookup("bielliptic")
PAIR_OF_SURFACES = SurfaceInvariants("pair_of_surfaces", 2, 0, 4, 8)


def rule_ids(verdict: Verdict) -> list[str]:
    return [r.rule_id for r in verdict.rules_fired]


# -- outcomes ---------------------------------------------------------------------


def test_equal_partitions_are_isomorphic():
    from hilbprod.surfaces import load_catalog

    for s in list(load_catalog().representatives()) + [PAIR_OF_SURFACES]:
        v = decide(s, Partition((1, 2)), Partition((1, 2)))
        assert v.outcome is Outcome.ISOMORPHIC, s.name
        assert v.witness is None and v.rules_fired == ()


def test_distinct_partitions_are_never_declared_isomorphic():
    from hilbprod.surfaces import load_catalog

    surfaces = load_catalog().representatives()
    for n in range(2, 7):
        partitions = enumerate_partitions(n)
        for a, b in itertools.combinations(partitions, 2):
            for s in surfaces:
                v = decide(s, a, b)
                assert v.outcome is not Outcome.ISOMORPHIC, (s.name, a, b)
                if v.outcome is Outcome.NON_ISOMORPHIC and v.witness is not None:
                    assert v.witness.value_a != v.witness.value_b


def test_k3_structural_rule():
    v = decide(K3, Partition((1, 3)), Partition((2, 2)))
    assert v.outcome is Outcome.NON_ISOMORPHIC
    assert "k3-product-rigidity" in rule_ids(v)
    assert v.witness is None  # structural certificate, comparison skipped


def test_dimension_mismatch_is_a_usage_error():
    with pytest.raises(DimensionMismatchError) as excinfo:
        decide(K3, Partition((1, 2)), Partition((2, 2)))
    assert "partitions sum to 3 and 4" in str(excinfo.value)
    assert "real dimensions 12 and 16" in str(excinfo.value)


def test_invalid_surface_is_a_data_error():
    # an invalid surface cannot be built, so decide never sees one
    with pytest.raises(DataError, match="fails validation: chi mismatch"):
        SurfaceInvariants("broken", 1, 0, 22, 25)
    # h11 = b2 - 2*h20 = -9 once gave a hodge_p0 witness 10 vs 5 at p = 2, where
    # the real b2 = 1 base (P^2) answers unknown; odd b1 once gave an Euler
    # witness 4 vs 5
    # b2 < b0 leaves a component without an ample class; these were once
    # answered
    for numbers, diagnostic in (
        (("bad", 1, 0, 1, 3, 0, 5), "h11 = b2 - 2*h20 = -9"),
        (("odd", 1, 1, 2, 2), "b1 must be even"),
        (("g", 3, 0, 1, 7), "b2 = 1 must be at least max(b0, 1) = 3"),
        (("g", 3, 0, 2, 8), "b2 = 2 must be at least max(b0, 1) = 3"),
        (("g", 2, 0, 1, 5), "b2 = 1 must be at least max(b0, 1) = 2"),
    ):
        with pytest.raises(DataError, match=re.escape(diagnostic)):
            SurfaceInvariants(*numbers)
    p2 = SurfaceInvariants("p2", 1, 0, 1, 3, 0, 0)
    assert decide(p2, Partition((1, 1)), Partition((2,))).outcome is Outcome.UNKNOWN


def test_inconsistent_disconnected_surface_is_a_data_error():
    # duality on each component forces chi = 2*b0 - 2*b1 + b2 = 8, not 5; with
    # chi = 5 the engine would report an Euler witness 25 vs 20 at (1,1) vs (2)
    # that the surface's own Betti vectors refute (z = -1 gives 64 at (1,1))
    with pytest.raises(DataError, match="chi mismatch"):
        SurfaceInvariants("pair", 2, 0, 4, 5)


def test_quintic_euler_witness_and_majorization_rule():
    v = decide(QUINTIC, Partition((1, 3)), Partition((2, 2)))
    assert v.outcome is Outcome.NON_ISOMORPHIC
    w = v.witness
    assert w is not None and w.invariant == "euler_characteristic"
    # (2,2) strictly majorizes (1,3) and chi = 55 >= 3: strict inequality
    assert w.value_b > w.value_a
    assert w.value_a == 55 * 32340 and w.value_b == 1595 * 1595
    assert "majorization-euler" in rule_ids(v)


def test_bielliptic_incomparable_pair_fixture():
    # chi = 0 ties the Euler counts; the Betti vectors separate at degree 2.
    # No sufficient-condition rule covers this pair; the computed witness does.
    v = decide(BIELLIPTIC, Partition((1, 4, 5)), Partition((2, 2, 6)))
    assert v.outcome is Outcome.NON_ISOMORPHIC
    assert v.witness == decision.Witness("betti", 2, 22, 24)
    assert rule_ids(v) == []


def test_abelian_first_betti_instance():
    v = decide(ABELIAN, Partition((1, 3)), Partition((2, 2)))
    assert v.outcome is Outcome.NON_ISOMORPHIC
    assert v.witness == decision.Witness("betti", 2, 35, 42)
    assert "same-length-first-betti" in rule_ids(v)


def test_disconnected_same_length_rule_and_direction():
    # every distinct same-length pair separates; the degree-0 coefficient
    # (product of zeroth Betti binomials) is strictly smaller on the side
    # that is smaller at the first differing part
    for n in range(2, 11):
        for bucket in partitions_by_length(n).values():
            for a, b in itertools.combinations(bucket, 2):
                for x, y in zip(a.parts, b.parts):
                    if x != y:
                        if x > y:
                            a, b = b, a
                        break
                v = decide(PAIR_OF_SURFACES, a, b)
                assert v.outcome is Outcome.NON_ISOMORPHIC
                assert "same-length-disconnected" in rule_ids(v)
                b0a = poincare_polynomial_tuple(PAIR_OF_SURFACES, a).betti(0)
                b0b = poincare_polynomial_tuple(PAIR_OF_SURFACES, b).betti(0)
                assert b0a == prod(comb(part + 1, 1) for part in a.parts)
                assert b0a < b0b


def test_diff_length_ones_margin_b2_identity():
    # degree-2 Betti gap equals (s - r)*(b2 + 1) + (k - l) for b0=1, b1=0
    for s in (QUINTIC, catalog_lookup("enriques")):
        for n in range(2, 9):
            partitions = enumerate_partitions(n)
            for a, b in itertools.combinations(partitions, 2):
                if a.length == b.length:
                    continue
                if a.length > b.length:
                    a, b = b, a
                k = sum(1 for p in a.parts if p == 1)
                l = sum(1 for p in b.parts if p == 1)
                predicted = (b.length - a.length) * (s.b2 + 1) + (k - l)
                got = poincare_polynomial_tuple(s, b).betti(
                    2
                ) - poincare_polynomial_tuple(s, a).betti(2)
                assert got == predicted, (s.name, a, b)
                if predicted != 0:
                    v = decide(s, a, b)
                    assert v.outcome is Outcome.NON_ISOMORPHIC


def test_euler_witness_strict_direction_for_majorizing_pairs():
    # chi >= 3 and b strictly majorizes a: the Euler counts separate strictly,
    # with the larger value on the majorizing side
    from hilbprod.partitions import Majorization, majorizes

    for s in (QUINTIC, catalog_lookup("enriques"), K3):
        if s.structural_class is not StructuralClass.GENERIC:
            continue
        for n in range(2, 9):
            for bucket in partitions_by_length(n).values():
                for a, b in itertools.combinations(bucket, 2):
                    order = majorizes(b, a)
                    if order is Majorization.INCOMPARABLE:
                        continue
                    v = decide(s, a, b)
                    assert v.outcome is Outcome.NON_ISOMORPHIC
                    assert "majorization-euler" in rule_ids(v)
                    assert v.witness is not None
                    assert v.witness.invariant == "euler_characteristic"
                    if order is Majorization.STRICTLY_MAJORIZES:
                        assert v.witness.value_b > v.witness.value_a
                    else:
                        assert v.witness.value_a > v.witness.value_b


def test_rule_annotation_for_quintic_unit_part_pair():
    v = decide(QUINTIC, Partition((2, 2)), Partition((1, 1, 2)))
    assert v.outcome is Outcome.NON_ISOMORPHIC
    ids = rule_ids(v)
    assert "diff-length-ones-margin" in ids
    # the all-parts-above-one rule must NOT fire: (1,1,2) has unit parts
    assert "diff-length-min-parts" not in ids


def test_rule_annotation_for_quintic_no_unit_parts():
    v = decide(QUINTIC, Partition((4,)), Partition((2, 2)))
    assert v.outcome is Outcome.NON_ISOMORPHIC
    assert "diff-length-min-parts" in rule_ids(v)


def test_decide_is_symmetric_up_to_witness_swap():
    pairs = [
        (QUINTIC, Partition((1, 3)), Partition((2, 2))),
        (BIELLIPTIC, Partition((1, 4, 5)), Partition((2, 2, 6))),
        (ABELIAN, Partition((1, 1, 4)), Partition((1, 2, 3))),
        (PAIR_OF_SURFACES, Partition((1, 2, 3)), Partition((2, 2, 2))),
    ]
    for s, a, b in pairs:
        v1 = decide(s, a, b)
        v2 = decide(s, b, a)
        assert v1.outcome == v2.outcome
        assert set(rule_ids(v1)) == set(rule_ids(v2))
        if v1.witness is not None:
            assert v2.witness is not None
            assert (v1.witness.invariant, v1.witness.index) == (
                v2.witness.invariant,
                v2.witness.index,
            )
            assert (v1.witness.value_a, v1.witness.value_b) == (
                v2.witness.value_b,
                v2.witness.value_a,
            )


def test_unknown_when_invariants_tie(monkeypatch):
    # force a tie to exercise the Unknown branch: invariants are not complete,
    # so equal data never certifies an isomorphism
    monkeypatch.setattr(decision, "euler_char_tuple", lambda s, a: 0)
    monkeypatch.setattr(
        decision,
        "poincare_polynomial_tuple",
        lambda s, a: poincare_polynomial_tuple(QUINTIC, Partition((1, 1))),
    )
    surface = SurfaceInvariants("stub", 1, 2, 2, 0, h10=1, h20=0)
    v = decide(surface, Partition((1, 1)), Partition((2,)))
    assert v.outcome is Outcome.UNKNOWN
    assert v.witness is None
    assert any("not" in note for note in v.notes)


def test_unknown_notes_hodge_skip(monkeypatch):
    # decide has no h^{p,0} tier and reads no Hodge data: a base with
    # h10/h20 and one without give the same two notes
    monkeypatch.setattr(decision, "euler_char_tuple", lambda s, a: 5)
    monkeypatch.setattr(
        decision,
        "poincare_polynomial_tuple",
        lambda s, a: poincare_polynomial_tuple(QUINTIC, Partition((1, 1))),
    )
    notes = []
    for surface in (
        SurfaceInvariants("stub", 1, 0, 4, 6),  # no Hodge data
        SurfaceInvariants("stub", 1, 0, 4, 6, h10=0, h20=1),
    ):
        v = decide(surface, Partition((1, 1)), Partition((2,)))
        assert v.outcome is Outcome.UNKNOWN and v.witness is None
        notes.append(v.notes)
    assert notes == [("Euler and Betti data agree", decision._NOT_COMPLETE)] * 2


def oracle_witness(
    s: SurfaceInvariants, a: Partition, b: Partition
) -> decision.Witness | None:
    """First difference of dense-convolution oracle vectors, in the engine's order:
    Euler (the alternating Betti sum), then Betti degree by degree, then h^{p,0}
    where the surface carries Hodge data."""

    def product(table) -> tuple[list[int], list[int]]:
        rows = table.rows_upto(a.n)
        return tuple(
            dense_kuenneth([rows[part] for part in p.parts]) for p in (a, b)
        )

    betti_a, betti_b = product(betti_table(s.b0, s.b1, s.b2))
    euler_a, euler_b = (
        sum((-1) ** i * c for i, c in enumerate(v)) for v in (betti_a, betti_b)
    )
    if euler_a != euler_b:
        return decision.Witness("euler_characteristic", None, euler_a, euler_b)
    tiers = [("betti", betti_a, betti_b)]
    if s.b0 == 1 and s.h10 is not None and s.h20 is not None:
        tiers.append(("hodge_p0", *product(hodge_p0_table(s.h10, s.h20))))
    for invariant, values_a, values_b in tiers:
        for i, (x, y) in enumerate(zip(values_a, values_b)):
            if x != y:
                return decision.Witness(invariant, i, x, y)
    return None


def test_verdicts_follow_the_first_oracle_difference():
    surfaces = [
        s for s in load_catalog().representatives()
        if s.structural_class is not StructuralClass.K3
    ]
    surfaces.append(PAIR_OF_SURFACES)
    tiers = collections.Counter()
    for s in surfaces:
        for n in range(2, 9):
            for a, b in itertools.combinations(enumerate_partitions(n), 2):
                expected = oracle_witness(s, a, b)
                v = decide(s, a, b)
                assert v.witness == expected, (s.name, a, b)
                if expected is None:
                    assert v.outcome is Outcome.UNKNOWN, (s.name, a, b)
                else:
                    assert v.outcome is Outcome.NON_ISOMORPHIC, (s.name, a, b)
                tiers[expected.invariant if expected else None] += 1
    # both comparison tiers decide pairs here; no pair reaches h^{p,0} or Unknown
    assert set(tiers) == {"euler_characteristic", "betti"}


def test_betti_ties_lie_on_one_base_where_the_hodge_p0_vectors_agree():
    # why decide has no h^{p,0} tier, in a finite range: on connected bases
    # with b1 in {0, 2, 4, 6, 8} and 1 <= b2 <= 40, two partitions of the
    # same n <= 12 with equal Betti vectors (so equal Euler characteristics)
    # occur only on (b1, b2) = (0, 1), and there every valid h20 gives them
    # equal h^{p,0} vectors.  Nothing is asserted outside this range.  Equal
    # Betti vectors have equal values at z = 2, so only partitions sharing
    # that value are multiplied out
    partitions = [a.parts for n in range(1, 13) for a in enumerate_partitions(n)]
    tied_pairs = collections.Counter()
    for b1, b2 in itertools.product(range(0, 10, 2), range(1, 41)):
        rows = betti_table(1, b1, b2).rows_upto(12)
        at_two = [sum(c << i for i, c in enumerate(row)) for row in rows]
        sieve = collections.defaultdict(list)
        for parts in partitions:
            sieve[sum(parts), prod(at_two[part] for part in parts)].append(parts)
        for candidates in sieve.values():
            if len(candidates) < 2:
                continue
            classes = collections.defaultdict(list)
            for parts in candidates:
                classes[tuple(dense_kuenneth([rows[part] for part in parts]))].append(parts)
            for members in classes.values():
                if len(members) < 2:
                    continue
                assert (b1, b2) == (0, 1), members
                tied_pairs[b1, b2] += comb(len(members), 2)
                hodge = valid_only((1, b1, b2, b1 // 2, h20) for h20 in range(b2 + 1))
                assert hodge, (b1, b2)
                for s in hodge:
                    hodge_rows = hodge_p0_table(s.h10, s.h20).rows_upto(12)
                    vectors = {
                        tuple(dense_kuenneth([hodge_rows[part] for part in parts]))
                        for parts in members
                    }
                    assert len(vectors) == 1, (s.h20, members)
    # the 253 Betti-equal pairs of P^2 at n <= 12
    assert tied_pairs == {(0, 1): 253}


def test_decide_order_never_changes_a_verdict(monkeypatch):
    # the Kuenneth products are stored per partition on first use, so the
    # order of the pairs decides which call fills each entry; with fresh
    # tables each time, forward and reversed sweeps agree pair by pair
    cases = [
        (s, a, b)
        for s in load_catalog().representatives()
        for n in range(1, 9)
        for a, b in itertools.combinations_with_replacement(enumerate_partitions(n), 2)
    ]
    fresh_tables(monkeypatch)
    forward = [decide(s, a, b).to_dict() for s, a, b in cases]
    fresh_tables(monkeypatch)
    backward = [decide(s, a, b).to_dict() for s, a, b in reversed(cases)]
    assert forward == backward[::-1]


# -- Kummer mode --------------------------------------------------------------------


def test_kummer_mode_structural_rule():
    kummer = kummer_reinterpretation(ABELIAN)
    assert kummer.structural_class is StructuralClass.ABELIAN_FOR_KUMMER
    v = decide(kummer, Partition((1, 3)), Partition((2, 2)))
    assert v.outcome is Outcome.NON_ISOMORPHIC
    assert rule_ids(v) == ["kummer-product-rigidity"]
    assert v.witness is None
    assert any("caveat" in note for note in v.notes)  # a part equals 1
    v2 = decide(kummer, Partition((2, 4)), Partition((3, 3)))
    assert not any("caveat" in note for note in v2.notes)


def test_kummer_mode_equal_partitions():
    kummer = kummer_reinterpretation(ABELIAN)
    assert decide(kummer, Partition((2,)), Partition((2,))).outcome is Outcome.ISOMORPHIC


def test_kummer_reinterpretation_refuses_non_abelian():
    # the retagged surface is built, so the abelian-class check refuses it
    refusal = "surface 'kummer(k3)' fails validation: structural class abelian_for_kummer"
    with pytest.raises(DataError, match=re.escape(refusal)):
        kummer_reinterpretation(K3)
    kummer = kummer_reinterpretation(ABELIAN)
    assert kummer.name == "kummer(abelian)"
    assert (kummer.b0, kummer.b1, kummer.b2, kummer.chi) == (1, 4, 6, 0)


# -- verdict serialization ------------------------------------------------------------


def test_verdict_round_trip():
    for v in (
        decide(QUINTIC, Partition((1, 3)), Partition((2, 2))),
        decide(K3, Partition((1, 3)), Partition((2, 2))),
        decide(K3, Partition((2, 2)), Partition((2, 2))),
    ):
        assert Verdict.from_dict(v.to_dict()) == v


# sha256 of every verdict's full ``to_dict()`` JSON, rule statements and
# details included, which the witness-only decide digest leaves out
FULL_VERDICT_DIGEST = "2b39b4f4f30bdb75391c7d976705e1f86402aa4d85321e02995f23459b0e64c4"


def test_every_verdict_dict_hashes_as_pinned():
    surfaces = [
        s for s in load_catalog().representatives() if not s.family_params
    ] + [
        kummer_reinterpretation(ABELIAN),
        PAIR_OF_SURFACES,
        SurfaceInvariants("pair_of_abelian", 2, 8, 12, 0),
    ]
    digest = hashlib.sha256()
    fired = set()
    count = 0
    for s in surfaces:
        for n in range(1, 11):
            partitions = enumerate_partitions(n)
            for a, b in itertools.product(partitions, repeat=2):
                record = decide(s, a, b).to_dict()
                fired.update(r["rule_id"] for r in record["rules_fired"])
                digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
                count += 1
    assert count == 32_238
    assert fired == set(decision.RULE_STATEMENTS)
    assert digest.hexdigest() == FULL_VERDICT_DIGEST


def test_a_loaded_verdict_refuses_an_unknown_rule():
    record = decide(K3, Partition((1, 3)), Partition((2, 2))).to_dict()
    bad = {**record, "rules_fired": [{"rule_id": "nope", "detail": ""}]}
    with pytest.raises(ValueError, match="unknown rule id 'nope'"):
        Verdict.from_dict(bad)
    with pytest.raises(ValueError, match="unknown rule id 'nope'"):
        FiredRule("nope", "")


def test_empty_partitions_are_refused():
    # a partition of a positive integer has at least one part, however it is built
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition.of()
    record = decide(K3, Partition((1, 3)), Partition((2, 2))).to_dict()
    with pytest.raises(ValueError):
        Verdict.from_dict({**record, "a": []})


# -- aut shapes ---------------------------------------------------------------------


def test_aut_shape_grouping():
    shape = aut_shape(Partition((1, 1, 2, 3, 3, 3)))
    assert shape.factors == ((1, 2), (2, 1), (3, 3))


def test_aut_shape_renderings():
    assert aut_shape(Partition((2, 2))).render() == "Aut(S^[2])^2 ⋊ S_2"
    assert aut_shape(Partition((5,))).render() == "Aut(S^[5])"
    assert (
        aut_shape(Partition((1, 1, 2, 3, 3, 3))).render()
        == "Aut(S^[1])^2 ⋊ S_2 × Aut(S^[2]) × Aut(S^[3])^3 ⋊ S_3"
    )


def test_aut_shape_factor_invariants():
    for n in range(1, 9):
        for a in enumerate_partitions(n):
            shape = aut_shape(a)
            values = [v for v, _ in shape.factors]
            assert values == sorted(set(values))
            assert sum(v * m for v, m in shape.factors) == n


def test_b0_rules_fire_only_where_zeroth_betti_numbers_differ():
    # both b0 rules claim that the products' zeroth Betti numbers
    # prod C(part + b0 - 1, b0 - 1) differ on a disconnected base; these
    # pairs collide, so neither rule may fire on them
    collisions = {
        2: {((1, 5, 5), (2, 2, 7)), ((5, 6, 8), (2, 2, 2, 13))},
        3: {((1, 4, 7), (2, 2, 8))},
        4: {((1, 3, 3, 4), (2, 2, 2, 5))},
    }
    for b0, expected in collisions.items():
        s = SurfaceInvariants(f"{b0}_copies", b0, 0, 2 * b0, 4 * b0)

        def zeroth(p: Partition) -> int:
            return prod(comb(part + b0 - 1, b0 - 1) for part in p.parts)

        seen = set()
        for n in range(2, 20):
            partitions = enumerate_partitions(n)
            pairs = [
                (a, b)
                for a, b in itertools.combinations(partitions, 2)
                if (a.length == b.length and n <= 12)
                or (a.length != b.length and a.parts[0] > 1 and b.parts[0] > 1)
            ]
            for a, b in pairs:
                fired = {r.rule_id for r in decision._annotate_rules(s, a, b)}
                rule = (
                    "same-length-disconnected"
                    if a.length == b.length
                    else "diff-length-min-parts"
                )
                differ = zeroth(a) != zeroth(b)
                assert (rule in fired) == differ, (b0, a, b)
                if not differ:
                    seen.add((a.parts, b.parts))
                    seen.add((b.parts, a.parts))
        assert expected <= seen
        for a, b in expected:
            pa = poincare_polynomial_tuple(s, Partition(a))
            pb = poincare_polynomial_tuple(s, Partition(b))
            assert pa.betti(0) == pb.betti(0) == zeroth(Partition(a))


def named_values(rule_id: str, s: SurfaceInvariants, a: Partition, b: Partition):
    """The invariant of ``s^[a]`` and ``s^[b]`` that a firing of the shape rule
    ``rule_id`` claims differs."""
    if rule_id in (
        "diff-length-min-parts", "diff-length-ones-margin", "same-length-disconnected"
    ):
        degree = 0 if s.b0 > 1 else 1 if s.b1 > 0 else 2
        return [poincare_polynomial_tuple(s, q).betti(degree) for q in (a, b)]
    if rule_id == "same-length-first-betti":
        j = next(j for j, (x, y) in enumerate(zip(a.parts, b.parts)) if x != y)
        p = min(a.parts[j], b.parts[j]) + 1
        return [hodge_p0_tuple_vector(s, q)[p] for q in (a, b)]
    assert rule_id in ("majorization-euler", "majorization-euler-b1-zero")
    return [euler_char_tuple(s, q) for q in (a, b)]


def test_rule_statements_hold_where_they_fire():
    # every firing of a shape rule names an invariant that must differ; check
    # that invariant on grids of valid bases, every pair n <= 8
    connected = valid_only(
        (1, b1, b2, b1 // 2, h20)
        for b1, b2, h20 in itertools.product((0, 2, 4), range(1, 7), (0, 1))
    )
    assert len(connected) == 30
    disconnected = valid_only(itertools.product((2, 3), (0, 2, 4), range(1, 9)))
    assert len(disconnected) == 39

    # on a disconnected base the ones-margin rule (a connected base's
    # degree-2 Betti gap) must not fire
    expected = {
        "connected": {
            "diff-length-min-parts",
            "diff-length-ones-margin",
            "same-length-first-betti",
            "majorization-euler",
            "majorization-euler-b1-zero",
        },
        "disconnected": {
            "diff-length-min-parts",
            "same-length-disconnected",
            "majorization-euler",
        },
    }
    for kind, grid in (("connected", connected), ("disconnected", disconnected)):
        fired = set()
        for s in grid:
            for n in range(2, 9):
                for a, b in itertools.combinations(enumerate_partitions(n), 2):
                    for rule in decision._annotate_rules(s, a, b):
                        fired.add(rule.rule_id)
                        x, y = named_values(rule.rule_id, s, a, b)
                        assert x != y, (rule.rule_id, s, a, b)
        assert fired == expected[kind]


def test_rule_statements_hold_on_p2_at_every_pair_up_to_18():
    s = catalog_lookup("del_pezzo", {"d": 9})
    fired = set()
    pairs = 0
    for n in range(2, 19):
        for a, b in itertools.combinations(enumerate_partitions(n), 2):
            pairs += 1
            for rule in decision._annotate_rules(s, a, b):
                fired.add(rule.rule_id)
                x, y = named_values(rule.rule_id, s, a, b)
                assert x != y, (rule.rule_id, a, b)
    assert pairs == 180_124
    assert fired == {
        "diff-length-min-parts",
        "diff-length-ones-margin",
        "majorization-euler",
        "majorization-euler-b1-zero",
    }


def test_rule_statements_hold_on_the_catalog_up_to_12(monkeypatch):
    # the catalog reaches bases the grids above do not: b1 = 8
    # (product_of_curves) and b2 = 53 (quintic); the tables this fills are
    # dropped afterwards, as other tests watch the shared ones grow
    fresh_tables(monkeypatch)
    generic = [
        s for s in load_catalog().representatives()
        if s.structural_class is StructuralClass.GENERIC
    ]
    assert len(generic) == 12
    pairs_by_n = [list(itertools.combinations(enumerate_partitions(n), 2)) for n in range(2, 13)]
    fired = set()
    checked = 0
    for s in generic:
        for pairs in pairs_by_n:
            checked += len(pairs)
            for a, b in pairs:
                for rule in decision._annotate_rules(s, a, b):
                    fired.add(rule.rule_id)
                    x, y = named_values(rule.rule_id, s, a, b)
                    assert x != y, (rule.rule_id, s.name, a, b)
    assert checked == 12 * 6_188 == 74_256
    assert fired == {
        "diff-length-min-parts",
        "diff-length-ones-margin",
        "same-length-first-betti",
        "majorization-euler",
        "majorization-euler-b1-zero",
    }


def expected_rule_ids(s: SurfaceInvariants, a: Partition, b: Partition) -> set[str]:
    """The shape rules whose hypotheses, as ``RULE_STATEMENTS`` states them,
    hold for (s, a, b), restated from the parts and the surface numbers."""
    pa, pb = a.parts, b.parts
    ids = set()
    if s.structural_class is StructuralClass.K3:
        ids.add("k3-product-rigidity")
    zeroth_a, zeroth_b = (
        prod(comb(part + s.b0 - 1, s.b0 - 1) for part in q) for q in (pa, pb)
    )
    if len(pa) != len(pb):
        (r, k), (s_len, l) = sorted((len(q), q.count(1)) for q in (pa, pb))
        if min(pa + pb) > 1 and (s.b0 == 1 or zeroth_a != zeroth_b):
            ids.add("diff-length-min-parts")
        if s.b0 == 1 and (k >= l or l - k != (s_len - r) * (s.b2 + 1)):
            ids.add("diff-length-ones-margin")
        return ids
    if s.b0 > 1 and zeroth_a != zeroth_b:
        ids.add("same-length-disconnected")
    first = next((x, y) for x, y in zip(pa, pb) if x != y)
    if s.b0 == 1 and s.b1 >= 2 * (min(first) + 1):
        ids.add("same-length-first-betti")
    # strict majorization: the decreasing prefix sums of one partition are all
    # >= those of the other (the partitions are distinct, so some are >)
    sums_a, sums_b = (list(itertools.accumulate(sorted(q, reverse=True))) for q in (pa, pb))
    if all(x >= y for x, y in zip(sums_a, sums_b)) or all(
        x <= y for x, y in zip(sums_a, sums_b)
    ):
        if s.chi >= 3:
            ids.add("majorization-euler")
        if s.b0 == 1 and s.b1 == 0:
            ids.add("majorization-euler-b1-zero")
    return ids


def test_fired_rules_match_the_restated_hypotheses():
    # FULL_VERDICT_DIGEST only shows that some verdict changed; this names
    # the rule and the pair where a hypothesis test drifts.  P^2 (chi = 3)
    # and a connected chi = 2 base sit on either side of the majorization
    # rules' chi >= 3, which no catalog representative reaches.
    surfaces = list(load_catalog().representatives()) + [
        PAIR_OF_SURFACES,
        SurfaceInvariants("pair_of_abelian", 2, 8, 12, 0),
        catalog_lookup("del_pezzo", {"d": 9}),
        SurfaceInvariants("chi_two", 1, 2, 4, 2),
    ]
    fired = set()
    for s in surfaces:
        for n in range(2, 9):
            for a, b in itertools.permutations(enumerate_partitions(n), 2):
                ids = set(rule_ids(decide(s, a, b)))
                assert ids == expected_rule_ids(s, a, b), (s.name, a.parts, b.parts)
                fired |= ids
    assert fired == set(decision.RULE_STATEMENTS) - {"kummer-product-rigidity"}


# -- shared rule records ------------------------------------------------------------

SHARED_RULE_IDS = {
    "diff-length-min-parts",
    "diff-length-ones-margin",
    "same-length-disconnected",
    "same-length-first-betti",
}
# the cached builders of those rules' records
SHARED_RULE_BUILDERS = (
    decision._min_parts_rule,
    decision._ones_margin_rule,
    decision._disconnected_rule,
    decision._first_betti_rule,
)


def clear_shared_rules() -> None:
    for builder in SHARED_RULE_BUILDERS:
        builder.cache_clear()


def restated_detail(rule_id: str, s: SurfaceInvariants, a: Partition, b: Partition) -> str:
    """The detail text of the rule ``rule_id``, built from numbers alone,
    restated from the parts and the surface numbers."""
    pa, pb = a.parts, b.parts
    zeroth_a, zeroth_b = (
        prod(comb(part + s.b0 - 1, s.b0 - 1) for part in q) for q in (pa, pb)
    )
    b0_text = f"b0 = {s.b0} > 1, zeroth Betti numbers {zeroth_a} vs {zeroth_b}"
    if rule_id == "same-length-disconnected":
        return b0_text
    if rule_id == "same-length-first-betti":
        j, x, y = next((j, x, y) for j, (x, y) in enumerate(zip(pa, pb)) if x != y)
        return f"first differing parts {x} vs {y} at index {j}; b1 = {s.b1} >= {2 * min(x, y) + 2}"
    (r, k), (s_len, l) = sorted((len(q), q.count(1)) for q in (pa, pb))
    if rule_id == "diff-length-min-parts":
        return f"lengths {r} < {s_len}, all parts > 1" + (f"; {b0_text}" if s.b0 > 1 else "")
    assert rule_id == "diff-length-ones-margin"
    if k >= l:
        return f"unit parts {k} (shorter) >= {l} (longer)"
    margin = (s_len - r) * (s.b2 + 1)
    text = f"unit parts {k} < {l}, l - k = {l - k} != {margin} = (s-r)*(b2+1)"
    if s.b1 == 0:
        text += f"; predicted degree-2 Betti gap (longer - shorter) = {margin - (l - k)}"
    return text


def test_pairs_with_the_same_detail_numbers_share_one_fired_rule():
    # each case: two pairs whose rule detail is built from the same numbers
    cases = [
        (QUINTIC, "diff-length-min-parts", ((2, 4), (2, 2, 2)), ((3, 4), (2, 2, 3))),
        (QUINTIC, "diff-length-ones-margin", ((2, 3), (1, 1, 3)), ((2, 4), (1, 1, 4))),
        (
            PAIR_OF_SURFACES,
            "same-length-disconnected",
            ((1, 1, 1, 3), (1, 1, 2, 2)),
            ((1, 3, 3), (2, 2, 3)),
        ),
        (ABELIAN, "same-length-first-betti", ((1, 3), (2, 2)), ((1, 4), (2, 3))),
    ]
    assert {rule_id for _, rule_id, _, _ in cases} == SHARED_RULE_IDS
    for s, rule_id, first, second in cases:
        found = []
        for a, b in (first, second, first):
            verdict = decide(s, Partition(a), Partition(b))
            found += [r for r in verdict.rules_fired if r.rule_id == rule_id]
        assert len(found) == 3 and found[0] is found[1] is found[2], rule_id
        assert found[0].detail == restated_detail(rule_id, s, Partition(first[0]), Partition(first[1]))


def test_shared_rule_details_match_their_restated_formulas():
    # a record shared under too coarse a key shows another surface's or
    # another pair's numbers; visiting the surfaces in both orders from an
    # empty store catches a key that drops a number either way.  With b0 = 2
    # and b0 = 3, some zeroth Betti numbers agree across the bases, so a key
    # without b0 would show the wrong b0.
    surfaces = list(load_catalog().representatives()) + [
        PAIR_OF_SURFACES,
        SurfaceInvariants("pair_of_abelian", 2, 8, 12, 0),
        SurfaceInvariants("three_copies", 3, 0, 6, 12),
    ]
    pairs = [
        pair for n in range(2, 9) for pair in itertools.permutations(enumerate_partitions(n), 2)
    ]
    for order in (surfaces, surfaces[::-1]):
        clear_shared_rules()
        checked = collections.Counter()
        for s in order:
            for a, b in pairs:
                for rule in decision._annotate_rules(s, a, b):
                    if rule.rule_id in SHARED_RULE_IDS:
                        expected = restated_detail(rule.rule_id, s, a, b)
                        assert rule.detail == expected, (s.name, a.parts, b.parts)
                        checked[rule.rule_id] += 1
        assert set(checked) == SHARED_RULE_IDS
        records = sum(builder.cache_info().currsize for builder in SHARED_RULE_BUILDERS)
        assert records < sum(checked.values())


def test_the_ones_margin_detail_depends_on_whether_b1_vanishes():
    # both bases have b2 = 6, so (2,3) vs (1,1,3) gives both the same
    # k = 0, l = 2 and margin 7; only the b1 = 0 base predicts the gap
    b1_zero, b1_positive = synthetic(1, 0, 6), ABELIAN
    assert (b1_zero.b2, b1_positive.b2) == (6, 6) and b1_positive.b1 > 0
    a, b = Partition((2, 3)), Partition((1, 1, 3))
    for order in ((b1_zero, b1_positive), (b1_positive, b1_zero)):
        clear_shared_rules()
        details = {}
        for s in order:
            (details[s.b1],) = [
                r.detail for r in decide(s, a, b).rules_fired
                if r.rule_id == "diff-length-ones-margin"
            ]
        assert details[4] == "unit parts 0 < 2, l - k = 2 != 7 = (s-r)*(b2+1)"
        assert details[0] == details[4] + "; predicted degree-2 Betti gap (longer - shorter) = 5"
