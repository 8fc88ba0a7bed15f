"""The value records: immutable slotted classes that compare, hash, print,
order, copy and pickle field by field, and check themselves when built."""

from __future__ import annotations

import copy
import itertools
import pickle
import random

import pytest

from hilbprod._record import Record
from hilbprod.decision import AutShape, FiredRule, Verdict, Witness, aut_shape, decide
from hilbprod.errors import DataError
from hilbprod.invariants import HodgeDiamond, PoincarePolynomial, poincare_series, surface_diamond
from hilbprod.partitions import Partition, _trusted, enumerate_partitions
from hilbprod.scanner import ScanReport, verify_lemma_inequalities
from hilbprod.series import TruncatedSeries
from hilbprod.surfaces import (
    Catalog,
    StructuralClass,
    SurfaceInvariants,
    catalog_lookup,
    load_catalog,
)

# each class's fields in positional order, and a factory that builds a fresh
# instance on every call
RECORDS = {
    Witness: (
        ("invariant", "index", "value_a", "value_b"),
        lambda: Witness("betti", 1, 4, 8),
    ),
    FiredRule: (
        ("rule_id", "detail"),
        lambda: FiredRule("k3-product-rigidity", "base surface is K3"),
    ),
    Verdict: (
        ("outcome", "surface", "a", "b", "witness", "rules_fired", "notes"),
        lambda: decide(catalog_lookup("abelian"), Partition((1, 3)), Partition((2, 2))),
    ),
    AutShape: (
        ("factors",),
        lambda: aut_shape(Partition((1, 1, 2))),
    ),
    PoincarePolynomial: (("coefficients",), lambda: PoincarePolynomial((1, 0, 2, 0, 1))),
    Partition: (("parts",), lambda: Partition((1, 2))),
    ScanReport: (
        ("scan_kind", "parameters", "pairs_checked", "violations", "wall_time_ms", "engine_version"),
        lambda: verify_lemma_inequalities(9, 2, "same_length").replace(wall_time_ms=0),
    ),
    SurfaceInvariants: (
        (
            "name", "b0", "b1", "b2", "chi", "h10", "h20",
            "structural_class", "family_params", "provenance",
        ),
        lambda: catalog_lookup("k3"),
    ),
    Catalog: (("version", "records"), load_catalog),
    TruncatedSeries: (
        ("truncation", "aux_count", "lines"),
        lambda: poincare_series(catalog_lookup("k3"), 4),
    ),
    HodgeDiamond: (("size", "cells"), lambda: surface_diamond(catalog_lookup("abelian"))),
}
CLASSES = list(RECORDS)


def fields_of(record) -> tuple:
    return tuple(getattr(record, name) for name in RECORDS[type(record)][0])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    names, make = RECORDS[cls]
    record, twin = make(), make()
    assert type(record) is cls and record.__slots__ == names
    fields = fields_of(record)
    # positional order: the fields rebuild an equal record
    assert cls(*fields) == record
    assert not hasattr(record, "__dict__")
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert fields_of(record) == fields

    assert record is not twin and record == twin and not record != twin
    if cls is Catalog:  # its records are dicts, so neither the tuple nor it hashes
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(fields)

    assert record != fields and record.__eq__(fields) is NotImplemented
    if len(fields) == 1:
        assert record != fields[0]
    for other in CLASSES:
        if other is not cls:
            assert record != RECORDS[other][1]()

    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record


def test_reprs_are_the_field_reprs():
    assert repr(Witness("betti", 1, 4, 8)) == (
        "Witness(invariant='betti', index=1, value_a=4, value_b=8)"
    )
    assert repr(Partition((1, 2))) == "Partition(parts=(1, 2))"
    assert repr(FiredRule("k3-product-rigidity", "base surface is K3")) == (
        "FiredRule(rule_id='k3-product-rigidity', detail='base surface is K3')"
    )
    assert repr(aut_shape(Partition((1, 1, 2)))) == "AutShape(factors=((1, 2), (2, 1)))"
    assert repr(PoincarePolynomial((1, 0, 2, 0, 1))) == (
        "PoincarePolynomial(coefficients=(1, 0, 2, 0, 1))"
    )
    assert repr(SurfaceInvariants("p2", 1, 0, 1, 3, 0, 0)) == (
        "SurfaceInvariants(name='p2', b0=1, b1=0, b2=1, chi=3, h10=0, h20=0, "
        "structural_class=<StructuralClass.GENERIC: 'generic'>, family_params=(), "
        "provenance='')"
    )
    assert repr(Catalog(1, ())) == "Catalog(version=1, records=())"


def test_surface_defaults():
    s = SurfaceInvariants("p2", 1, 0, 1, 3)
    assert fields_of(s)[5:] == (None, None, StructuralClass.GENERIC, (), "")


def test_partitions_order_as_their_parts():
    partitions = enumerate_partitions(8)
    shuffled = random.Random(8).sample(partitions, len(partitions))
    assert sorted(shuffled) == partitions == sorted(shuffled, key=lambda p: p.parts)
    assert sorted(shuffled, reverse=True) == partitions[::-1]
    for a, b in itertools.product(enumerate_partitions(6), repeat=2):
        assert (a < b, a <= b, a > b, a >= b) == (
            a.parts < b.parts, a.parts <= b.parts, a.parts > b.parts, a.parts >= b.parts
        )
    with pytest.raises(TypeError):
        Partition((1, 2)) < (1, 3)


def test_trusted_partitions_skip_the_checks():
    assert _trusted((3, 1)).parts == (3, 1)
    with pytest.raises(ValueError, match="weakly increasing"):
        Partition((3, 1))


def test_replace_checks_the_copy():
    k3 = catalog_lookup("k3")
    assert k3.replace(provenance="x") == SurfaceInvariants(*fields_of(k3)[:-1], "x")
    with pytest.raises(DataError, match="fails validation"):
        k3.replace(chi=25)
    report = RECORDS[ScanReport][1]()
    assert report.replace(wall_time_ms=5).wall_time_ms == 5
    with pytest.raises(ValueError, match="wall_time_ms must be a plain int"):
        report.replace(wall_time_ms=True)
    with pytest.raises(TypeError):
        report.replace(no_such_field=1)


# per class, one input its ``__init__`` refuses and the error it raises; the
# four classes without a construction check refuse a missing field
INVALID = {
    Witness: (
        lambda: Witness("betti", 1, 4),
        TypeError,
        "missing 1 required positional argument: 'value_b'",
    ),
    FiredRule: (
        lambda: FiredRule("no-such-rule", ""), ValueError, "unknown rule id 'no-such-rule'"
    ),
    Verdict: (
        lambda: Verdict(None, "k3", Partition((1,)), Partition((1,)), None, ()),
        TypeError,
        "missing 1 required positional argument: 'notes'",
    ),
    AutShape: (lambda: AutShape(), TypeError, "missing 1 required positional argument: 'factors'"),
    PoincarePolynomial: (
        lambda: PoincarePolynomial((1, 0, 1)),
        ValueError,
        "length must be 4*n + 1 for a 4n-real-dimensional product",
    ),
    Partition: (
        lambda: Partition((3, 1)), ValueError, "parts must be weakly increasing, got (3, 1)"
    ),
    ScanReport: (
        lambda: RECORDS[ScanReport][1]().replace(wall_time_ms=True),
        ValueError,
        "report field wall_time_ms must be a plain int, got True",
    ),
    SurfaceInvariants: (
        lambda: SurfaceInvariants("x", 1, 0, 1, 4),
        DataError,
        "surface 'x' fails validation: chi mismatch: chi=4 but 2*b0 - 2*b1 + b2 = 3",
    ),
    Catalog: (lambda: Catalog(1), TypeError, "missing 1 required positional argument: 'records'"),
    TruncatedSeries: (
        lambda: TruncatedSeries(2, 0, ((1,),)),
        TypeError,
        "TruncatedSeries takes one line per t-degree 0..truncation",
    ),
    HodgeDiamond: (
        lambda: HodgeDiamond(2, {(0, 0): 1.0}),
        DataError,
        "Hodge diamond needs plain ints, got size 2 and {(0, 0): 1.0}",
    ),
}


def test_every_record_class_has_an_invalid_case():
    assert set(INVALID) == set(CLASSES) == set(Record.__subclasses__())


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_construction_still_refuses_invalid_input(cls):
    build, error, message = INVALID[cls]
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error
    assert message in str(caught.value)
