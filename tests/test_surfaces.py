"""Surface catalog: table values, validation at construction, serialization round trips."""

from __future__ import annotations

import json
import re

import pytest

from hilbprod.errors import CatalogError, DataError
from hilbprod.surfaces import (
    CATALOG_ENV_VAR,
    FAMILIES,
    StructuralClass,
    SurfaceInvariants,
    catalog_lookup,
    load_catalog,
)


def test_fixed_rows_match_table():
    expected = {
        "k3": (1, 0, 22, 24),
        "enriques": (1, 0, 10, 12),
        "abelian": (1, 4, 6, 0),
        "bielliptic": (1, 2, 2, 0),
        "rational_elliptic": (1, 0, 10, 12),
        "quintic": (1, 0, 53, 55),
    }
    for name, numbers in expected.items():
        s = catalog_lookup(name)
        assert (s.b0, s.b1, s.b2, s.chi) == numbers, name



def test_describe_shows_hodge_data_only_where_the_surface_has_it():
    assert catalog_lookup("k3").describe() == "k3: b0=1, b1=0, b2=22, chi=24, h10=0, h20=1"
    assert SurfaceInvariants("x", 1, 0, 22, 24).describe() == "x: b0=1, b1=0, b2=22, chi=24"

def test_family_rows_match_table():
    # (b0, b1, b2, chi, h10, h20); every family has a row
    expected = [
        ("del_pezzo", {"d": 1}, (1, 0, 9, 11, 0, 0)),
        ("del_pezzo", {"d": 9}, (1, 0, 1, 3, 0, 0)),
        ("hirzebruch", {"n": 4}, (1, 0, 2, 4, 0, 0)),
        ("ruled", {"g": 2}, (1, 4, 2, -4, 2, 0)),
        ("elliptic_chi1", {"g": 2}, (1, 4, 18, 12, 2, 2)),
        ("elliptic_chi2", {"g": 1}, (1, 2, 26, 24, 1, 2)),
        ("elliptic_en", {"n": 3}, (1, 0, 34, 36, 0, 2)),
        ("product_of_curves", {"g1": 2, "g2": 3}, (1, 10, 26, 8, 5, 6)),
    ]
    assert {name for name, _, _ in expected} == set(FAMILIES)
    for name, params, numbers in expected:
        s = catalog_lookup(name, params)
        assert (s.b0, s.b1, s.b2, s.chi, s.h10, s.h20) == numbers, (name, params)
        assert s.family_params == tuple(sorted(params.items()))


def test_hodge_data_shipping_policy():
    assert catalog_lookup("k3").h20 == 1
    assert catalog_lookup("enriques").h20 == 0
    assert catalog_lookup("abelian").h20 == 1
    assert catalog_lookup("bielliptic").h20 == 0
    assert catalog_lookup("del_pezzo", {"d": 5}).h20 == 0
    assert catalog_lookup("quintic").h20 == 4
    assert catalog_lookup("ruled", {"g": 3}).h20 == 0
    # every shipped row carries h20
    assert all(s.h20 is not None for s in load_catalog().representatives())
    # h10 is forced by b1 and shipped everywhere
    assert catalog_lookup("abelian").h10 == 2
    assert catalog_lookup("ruled", {"g": 3}).h10 == 3


def test_h20_gives_the_textbook_canonical_square():
    # Noether: K^2 = 12 chi(O) - chi with chi(O) = 1 - h10 + h20
    expected = [
        ("del_pezzo", {"d": d}, d) for d in range(1, 10)
    ] + [("hirzebruch", {"n": n}, 8) for n in (1, 2, 7)] + [
        ("rational_elliptic", None, 0), ("k3", None, 0), ("enriques", None, 0),
        ("abelian", None, 0), ("bielliptic", None, 0), ("quintic", None, 5),
    ] + [("ruled", {"g": g}, 8 * (1 - g)) for g in range(6)] + [
        (name, {"g": g}, 0) for name in ("elliptic_chi1", "elliptic_chi2") for g in range(6)
    ] + [("elliptic_en", {"n": n}, 0) for n in range(3, 9)] + [
        ("product_of_curves", {"g1": g1, "g2": g2}, 8 * (g1 - 1) * (g2 - 1))
        for g1 in range(2, 6) for g2 in range(2, 6)
    ]
    assert {name for name, _, _ in expected} == set(load_catalog().names())
    for name, params, k_squared in expected:
        s = catalog_lookup(name, params)
        assert 12 * (1 - s.h10 + s.h20) - s.chi == k_squared, (name, params)


def test_every_shipped_row_passes_validation():
    # an invalid row would raise DataError when it is built
    assert len(load_catalog().representatives()) == len(load_catalog().records)


def test_k3_structural_class():
    assert catalog_lookup("k3").structural_class is StructuralClass.K3
    assert catalog_lookup("abelian").structural_class is StructuralClass.GENERIC


def test_validate_chi_mismatch():
    with pytest.raises(DataError, match="chi mismatch"):
        SurfaceInvariants("broken", 1, 0, 22, 25)


def test_validate_h10_relation():
    with pytest.raises(DataError, match=re.escape("b1 != 2*h10")):
        SurfaceInvariants("broken", 1, 4, 6, 0, h10=1)


def test_validate_hodge_data_against_b2():
    # h11 = b2 - 2*h20 = -9: no projective surface has this Hodge diamond
    with pytest.raises(DataError, match=re.escape("h11 = b2 - 2*h20 = -9")):
        SurfaceInvariants("bad", 1, 0, 1, 3, 0, 5)
    # h11 = 0 is refused too: a connected projective surface has an ample class
    with pytest.raises(DataError, match=re.escape("h11 = b2 - 2*h20 = 0")):
        SurfaceInvariants("bad", 1, 0, 2, 4, 0, 1)
    SurfaceInvariants("p2", 1, 0, 1, 3, 0, 0)
    # on a disconnected base each component needs its own class
    with pytest.raises(DataError, match=re.escape("must be at least b0 = 2")):
        SurfaceInvariants("pair", 2, 0, 3, 7, h20=1)


def test_validate_odd_b1():
    with pytest.raises(DataError, match="b1 must be even"):
        SurfaceInvariants("odd", 1, 1, 2, 2)
    with pytest.raises(DataError, match="b1 must be even"):
        SurfaceInvariants("pair", 2, 3, 4, 2)


def test_validate_k3_class_forced_tuple():
    with pytest.raises(DataError, match="structural class k3"):
        SurfaceInvariants(
            "fake-k3", 1, 0, 21, 23, h10=0, h20=1, structural_class=StructuralClass.K3
        )


@pytest.mark.parametrize(
    "numbers, hodge, diagnostics",
    [
        ((0, 0, 1, 1), {}, "b0 must be positive, got 0"),
        (
            (1, -2, 2, 8), {"h10": -1, "h20": 0},
            "b1 must be nonnegative, got -2; h10 must be nonnegative, got -1",
        ),
        ((1, 0, 2, 4), {"h10": 0, "h20": -1}, "h20 must be nonnegative, got -1"),
    ],
    ids=["b0-zero", "h10-negative", "h20-negative"],
)
def test_validate_reports_each_sign_condition(numbers, hodge, diagnostics):
    with pytest.raises(DataError) as excinfo:
        SurfaceInvariants("x", *numbers, **hodge)
    assert str(excinfo.value) == f"surface 'x' fails validation: {diagnostics}"


def test_validate_disconnected_skips_duality():
    assert SurfaceInvariants("pair", 2, 0, 4, 8).chi == 8


def test_validate_disconnected_chi_mismatch():
    # duality holds on each component: chi = 2*b0 - 2*b1 + b2 = 8, not 5
    with pytest.raises(DataError, match="chi mismatch"):
        SurfaceInvariants("pair", 2, 0, 4, 5)


def test_construction_raises_the_validation_message():
    message = (
        "surface 'broken' fails validation: chi mismatch: chi=25 but "
        "2*b0 - 2*b1 + b2 = 24 (Poincare duality, b3 = b1 and b4 = b0)"
    )
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        SurfaceInvariants("broken", 1, 0, 22, 25)
    # every way of building a surface passes through the same check
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        SurfaceInvariants("broken", 1, 0, 22, 24).replace(chi=25)
    k3 = catalog_lookup("k3")
    with pytest.raises(DataError, match=re.escape("surface 'k3' fails validation: chi mismatch")):
        k3.replace(chi=25)
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        SurfaceInvariants.from_record(
            {"name": "broken", "b0": 1, "b1": 0, "b2": 22, "chi": 25}
        )


def test_structural_class_must_be_a_member():
    message = re.escape(
        "fails validation: structural_class must be a StructuralClass member, got 'k3'"
    )
    with pytest.raises(DataError, match=f"^surface 'x' {message}$"):
        SurfaceInvariants("x", 1, 0, 22, 24, 0, 1, structural_class="k3")
    k3 = catalog_lookup("k3")
    with pytest.raises(DataError, match=f"^surface 'k3' {message}$"):
        k3.replace(structural_class="k3")
    # a record names its class by value, and only a known value converts
    record = k3.to_record()
    assert SurfaceInvariants.from_record(record).structural_class is StructuralClass.K3
    with pytest.raises(CatalogError, match="malformed surface record"):
        SurfaceInvariants.from_record({**record, "structural_class": "nope"})


def test_a_record_with_a_bool_number_fails_validation():
    # JSON true/false are not numbers; a missing field is still a malformed record
    with pytest.raises(DataError, match="h20 must be a plain int, got True"):
        SurfaceInvariants.from_record(
            {"name": "x", "b0": 1, "b1": 0, "b2": 22, "chi": 24, "h10": 0, "h20": True}
        )
    with pytest.raises(CatalogError, match="malformed surface record"):
        SurfaceInvariants.from_record({"name": "x", "b0": 1})


def test_round_trip_serialization():
    for s in load_catalog().representatives():
        assert SurfaceInvariants.from_record(s.to_record()) == s


def test_unknown_surface_and_bad_params():
    with pytest.raises(CatalogError):
        catalog_lookup("projective-plane")
    with pytest.raises(CatalogError):
        catalog_lookup("k3", {"d": 1})  # no parameters expected
    # each family: the smallest valid value is accepted, one step below refused
    smallest = {
        "del_pezzo": {"d": 1},
        "hirzebruch": {"n": 1},
        "ruled": {"g": 0},
        "elliptic_chi1": {"g": 0},
        "elliptic_chi2": {"g": 0},
        "elliptic_en": {"n": 3},
        "product_of_curves": {"g1": 2, "g2": 2},
    }
    assert set(smallest) == set(FAMILIES)
    for name, params in smallest.items():
        catalog_lookup(name, params)  # builds, so it is valid
        for key in params:
            with pytest.raises(CatalogError):
                catalog_lookup(name, {**params, key: params[key] - 1})
        with pytest.raises(CatalogError):
            catalog_lookup(name, {})  # missing parameter
        with pytest.raises(CatalogError):
            catalog_lookup(name, {**params, "x": 1})  # unexpected parameter
    assert catalog_lookup("del_pezzo", {"d": 9}).b2 == 1
    with pytest.raises(CatalogError):
        catalog_lookup("del_pezzo", {"d": 10})
    with pytest.raises(CatalogError):
        catalog_lookup("product_of_curves", {"g1": 2})  # g2 missing
    for bad in (True, False, 9.0):  # a bool is an int subclass, a float is not
        with pytest.raises(CatalogError, match="must be an integer"):
            catalog_lookup("del_pezzo", {"d": bad})


def test_custom_catalog_file(tmp_path, monkeypatch):
    custom = {
        "version": 1,
        "surfaces": [
            {
                "name": "my_surface",
                "family_params": [],
                "b0": 1,
                "b1": 0,
                "b2": 4,
                "chi": 6,
                "structural_class": "generic",
                "provenance": "user-supplied",
            }
        ],
    }
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(custom))
    s = load_catalog(path).lookup("my_surface")
    assert (s.b0, s.b1, s.b2, s.chi) == (1, 0, 4, 6)
    monkeypatch.setenv(CATALOG_ENV_VAR, str(path))
    assert load_catalog().names() == ["my_surface"]
    monkeypatch.setenv(CATALOG_ENV_VAR, str(tmp_path / "missing.json"))
    with pytest.raises(CatalogError):
        load_catalog()


@pytest.mark.parametrize(
    "row, message",
    [
        ({"name": "del_pezzo", "family_params": ["q"]}, "takes parameters ['d']"),
        ({"name": "s", "family_params": ["d"]}, "no family formula is registered"),
    ],
    ids=["wrong-parameters", "unregistered-family"],
)
def test_a_family_row_must_declare_its_registered_parameters(tmp_path, row, message):
    # refused when the catalog loads, not first when the row is looked up
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"version": 1, "surfaces": [row]}))
    with pytest.raises(CatalogError, match=re.escape(message)):
        load_catalog(path)


K3_ROW = load_catalog().record("k3")


@pytest.mark.parametrize(
    "document, message",
    [
        ({"surfaces": [K3_ROW]}, "malformed catalog .*: 'version'"),
        ({"version": 1}, "malformed catalog .*: 'surfaces'"),
        ({"version": 1, "surfaces": [{**K3_ROW, "name": ""}]}, "a record without a name"),
        (
            {"version": 1, "surfaces": [{k: v for k, v in K3_ROW.items() if k != "name"}]},
            "a record without a name",
        ),
        ({"version": 1, "surfaces": [K3_ROW, K3_ROW]}, "duplicate surface 'k3'"),
    ],
    ids=["no-version", "no-surfaces", "empty-name", "row-without-name", "duplicate-name"],
)
def test_a_malformed_catalog_document_is_refused(tmp_path, document, message):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(document))
    with pytest.raises(CatalogError, match=message):
        load_catalog(path)


def test_family_defaults_cover_all_family_rows():
    catalog = load_catalog()
    family_rows = {r["name"] for r in catalog.records if r.get("family_params")}
    assert family_rows == set(FAMILIES)
    for name, (params, _) in FAMILIES.items():
        assert catalog.record(name)["family_params"] == list(params)


def test_a_changed_record_leaves_the_catalog_as_it_was():
    catalog = load_catalog()
    k3 = catalog.lookup("k3")
    catalog.record("k3")["chi"] = 25
    catalog.record("ruled")["family_params"].append("h")
    assert catalog.lookup("k3") == k3
    assert catalog.record("ruled")["family_params"] == ["g"]
    assert catalog == load_catalog()
