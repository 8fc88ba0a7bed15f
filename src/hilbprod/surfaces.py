"""Catalog of base-surface invariants, checked once when built.

Each surface record carries the Betti numbers (b0, b1, b2), the topological
Euler characteristic chi, and optionally the Hodge numbers h^{1,0} and
h^{2,0}.  Poincare duality on each component gives b3 = b1 and b4 = b0, so
every surface, connected or not, has ``chi = 2*b0 - 2*b1 + b2``; Hodge
symmetry makes b1 even and forces ``b1 = 2*h10``; an ample class on each
component gives ``h11 = b2 - 2*h20 >= b0``.  A :class:`SurfaceInvariants`
checks all of these when it is built and raises ``DataError`` if one fails,
so every surface that exists is valid and no caller checks again.

Families (del Pezzo, ruled, ...) are one table, :data:`FAMILIES`: parameter
defaults and ranges plus the formula for (b1, b2, h10, h20).  A lookup turns
a family row into a literal record (b0 = 1, chi by duality), and every
surface is built by :meth:`SurfaceInvariants.from_record`.

h^{2,0} cannot be recovered from Betti numbers alone.  Every shipped row
carries the standard value for its class, which gives the textbook K^2 by
Noether's formula ``K^2 = 12 (1 - h10 + h20) - chi``; a custom row without
it refuses Hodge-number operations rather than guessing.

The catalog is a versioned JSON document shipped with the package (field
names are the compatibility contract); custom surfaces enter through the same
schema via ``HILBPROD_CATALOG`` or an explicit path.
"""

from __future__ import annotations

import enum
import json
import os
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple

from ._record import Record
from .errors import CatalogError, DataError

__all__ = [
    "StructuralClass",
    "SurfaceInvariants",
    "Catalog",
    "load_catalog",
    "catalog_lookup",
    "FAMILIES",
    "CATALOG_ENV_VAR",
]

CATALOG_ENV_VAR = "HILBPROD_CATALOG"

K3_INVARIANTS = (1, 0, 22, 24, 0, 1)
ABELIAN_INVARIANTS = (1, 4, 6, 0)


class StructuralClass(enum.Enum):
    GENERIC = "generic"
    K3 = "k3"
    ABELIAN_FOR_KUMMER = "abelian_for_kummer"


class SurfaceInvariants(Record):
    """One base surface; building it raises ``DataError`` unless it is valid.

    ``replace(**changes)`` builds a changed copy, checked in the same way.
    """

    __slots__ = (
        "name", "b0", "b1", "b2", "chi", "h10", "h20",
        "structural_class", "family_params", "provenance",
    )
    name: str
    b0: int
    b1: int
    b2: int
    chi: int
    h10: int | None
    h20: int | None
    structural_class: StructuralClass
    family_params: tuple[tuple[str, int], ...]
    provenance: str

    def __init__(
        self,
        name: str,
        b0: int,
        b1: int,
        b2: int,
        chi: int,
        h10: int | None = None,
        h20: int | None = None,
        structural_class: StructuralClass = StructuralClass.GENERIC,
        family_params: tuple[tuple[str, int], ...] = (),
        provenance: str = "",
    ) -> None:
        (
            set_name, set_b0, set_b1, set_b2, set_chi, set_h10, set_h20,
            set_structural_class, set_family_params, set_provenance,
        ) = self._setters
        set_name(self, name)
        set_b0(self, b0)
        set_b1(self, b1)
        set_b2(self, b2)
        set_chi(self, chi)
        set_h10(self, h10)
        set_h20(self, h20)
        set_structural_class(self, structural_class)
        set_family_params(self, family_params)
        set_provenance(self, provenance)
        diagnostics = _diagnostics(self)
        if diagnostics:
            raise DataError(
                f"surface {self.name!r} fails validation: " + "; ".join(diagnostics)
            )

    def to_record(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "name": self.name,
            "family_params": dict(self.family_params),
            "b0": self.b0,
            "b1": self.b1,
            "b2": self.b2,
            "chi": self.chi,
            "structural_class": self.structural_class.value,
            "provenance": self.provenance,
        }
        if self.h10 is not None:
            record["h10"] = self.h10
        if self.h20 is not None:
            record["h20"] = self.h20
        return record

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "SurfaceInvariants":
        try:
            return cls(
                name=record["name"],
                b0=record["b0"],
                b1=record["b1"],
                b2=record["b2"],
                chi=record["chi"],
                h10=record.get("h10"),
                h20=record.get("h20"),
                structural_class=StructuralClass(
                    record.get("structural_class", "generic")
                ),
                family_params=tuple(
                    sorted(dict(record.get("family_params", {})).items())
                ),
                provenance=record.get("provenance", ""),
            )
        except DataError:  # a failed validation keeps its own message
            raise
        except (KeyError, ValueError, TypeError) as exc:
            raise CatalogError(f"malformed surface record: {exc}") from exc

    def describe(self) -> str:
        hodge = ""
        if self.h10 is not None or self.h20 is not None:
            hodge = f", h10={self.h10}, h20={self.h20}"
        return (
            f"{self.name}: b0={self.b0}, b1={self.b1}, b2={self.b2}, "
            f"chi={self.chi}{hodge}"
        )


def _not_plain_ints(s: SurfaceInvariants) -> list[str]:
    """Diagnostics for the numbers of ``s`` that are not plain ints (bools
    included, as JSON true/false are not numbers; h10 and h20 may be None)."""
    numbers = [("b0", s.b0), ("b1", s.b1), ("b2", s.b2), ("chi", s.chi)]
    numbers += [(name, h) for name, h in (("h10", s.h10), ("h20", s.h20)) if h is not None]
    return [
        f"{name} must be a plain int, got {value!r}"
        for name, value in numbers
        if type(value) is not int
    ]


def _diagnostics(s: SurfaceInvariants) -> list[str]:
    """Diagnostics for every invariant ``s`` violates; empty list means ok.

    Numbers that are not plain ints, and a structural class that is not a
    :class:`StructuralClass` member, are reported alone: the other checks
    compute with the numbers and test the class by identity.
    """
    bad = _not_plain_ints(s)
    if not isinstance(s.structural_class, StructuralClass):
        bad.append(
            f"structural_class must be a StructuralClass member, "
            f"got {s.structural_class!r}"
        )
    if bad:
        return bad
    diagnostics = []
    if s.b0 < 1:
        diagnostics.append(f"b0 must be positive, got {s.b0}")
    if s.b1 < 0:
        diagnostics.append(f"b1 must be nonnegative, got {s.b1}")
    if s.b1 % 2:
        diagnostics.append(f"b1 must be even (Hodge symmetry), got {s.b1}")
    if s.b2 < max(s.b0, 1):
        diagnostics.append(
            f"b2 = {s.b2} must be at least max(b0, 1) = {max(s.b0, 1)} "
            "(an ample class on each component)"
        )
    if s.chi != 2 * s.b0 - 2 * s.b1 + s.b2:
        diagnostics.append(
            f"chi mismatch: chi={s.chi} but 2*b0 - 2*b1 + b2 = "
            f"{2 * s.b0 - 2 * s.b1 + s.b2} (Poincare duality, b3 = b1 and b4 = b0)"
        )
    if s.h10 is not None and s.b1 != 2 * s.h10:
        diagnostics.append(f"b1 != 2*h10: b1={s.b1}, h10={s.h10}")
    if s.h10 is not None and s.h10 < 0:
        diagnostics.append(f"h10 must be nonnegative, got {s.h10}")
    if s.h20 is not None and s.h20 < 0:
        diagnostics.append(f"h20 must be nonnegative, got {s.h20}")
    if s.h20 is not None and s.b2 - 2 * s.h20 < s.b0:
        diagnostics.append(
            f"h11 = b2 - 2*h20 = {s.b2 - 2 * s.h20} must be at least b0 = {s.b0} "
            "(an ample class on each component)"
        )
    if s.structural_class is StructuralClass.K3:
        actual = (s.b0, s.b1, s.b2, s.chi, s.h10, s.h20)
        if actual != K3_INVARIANTS:
            diagnostics.append(
                f"structural class k3 forces (b0,b1,b2,chi,h10,h20) = "
                f"{K3_INVARIANTS}, got {actual}"
            )
    if s.structural_class is StructuralClass.ABELIAN_FOR_KUMMER:
        actual = (s.b0, s.b1, s.b2, s.chi)
        if actual != ABELIAN_INVARIANTS:
            diagnostics.append(
                f"structural class abelian_for_kummer needs an abelian surface "
                f"(b0,b1,b2,chi) = {ABELIAN_INVARIANTS}, got {actual}"
            )
    return diagnostics


# -- family formulas ----------------------------------------------------------


class Param(NamedTuple):
    default: int
    low: int
    high: int | None = None  # None: unbounded above


# family -> (its parameters, the formula giving (b1, b2, h10, h20) from their
# values in order); every family is connected (b0 = 1) and gets chi by duality
FAMILIES: dict[str, tuple[dict[str, Param], Callable[..., tuple]]] = {
    "del_pezzo": ({"d": Param(3, 1, 9)}, lambda d: (0, 10 - d, 0, 0)),
    "hirzebruch": ({"n": Param(2, 1)}, lambda n: (0, 2, 0, 0)),
    "ruled": ({"g": Param(2, 0)}, lambda g: (2 * g, 2, g, 0)),
    "elliptic_chi1": ({"g": Param(1, 0)}, lambda g: (2 * g, 4 * g + 10, g, g)),
    "elliptic_chi2": ({"g": Param(2, 0)}, lambda g: (2 * g, 4 * g + 22, g, g + 1)),
    "elliptic_en": ({"n": Param(3, 3)}, lambda n: (0, 12 * n - 2, 0, n - 1)),
    "product_of_curves": (
        {"g1": Param(2, 2), "g2": Param(2, 2)},
        lambda g1, g2: (2 * (g1 + g2), 2 + 4 * g1 * g2, g1 + g2, g1 * g2),
    ),
}


def _family_record(row: Mapping[str, Any], params: Mapping[str, int]) -> dict[str, Any]:
    """The literal record of the family catalog row ``row`` at ``params``."""
    name = row["name"]
    declared, formula = FAMILIES[name]
    missing = [p for p in declared if p not in params]
    extra = [p for p in params if p not in declared]
    if missing or extra:
        raise CatalogError(
            f"family {name!r} takes parameters {list(declared)}; "
            f"missing {missing}, unexpected {extra}"
        )
    for p, (_, low, high) in declared.items():
        v = params[p]
        if type(v) is not int:
            raise CatalogError(f"parameter {p}={v!r} of {name!r} must be an integer")
        if v < low or (high is not None and v > high):
            allowed = f">= {low}" if high is None else f"in {low}..{high}"
            raise CatalogError(f"parameter {p} of {name!r} must be {allowed}, got {v}")
    b1, b2, h10, h20 = formula(*(params[p] for p in declared))
    return {
        "name": name, "family_params": dict(params), "b0": 1, "b1": b1, "b2": b2,
        "chi": 2 - 2 * b1 + b2, "h10": h10, "h20": h20,
        "provenance": row.get("provenance", ""),
    }


# -- catalog ------------------------------------------------------------------


class Catalog(Record):
    __slots__ = ("version", "records")
    version: int
    records: tuple[dict[str, Any], ...]

    def __init__(self, version: int, records: tuple[dict[str, Any], ...]) -> None:
        set_version, set_records = self._setters
        set_version(self, version)
        set_records(self, records)

    def names(self) -> list[str]:
        return [r["name"] for r in self.records]

    def _row(self, name: str) -> dict[str, Any]:
        for r in self.records:
            if r["name"] == name:
                return r
        raise CatalogError(
            f"unknown surface {name!r}; known: {', '.join(self.names())}"
        )

    def record(self, name: str) -> dict[str, Any]:
        """A copy of the row of ``name``: changing it leaves the catalog as it was."""
        from copy import deepcopy  # here, not at start-up: only this method copies
        return deepcopy(self._row(name))

    def lookup(
        self, name: str, params: Mapping[str, int] | None = None
    ) -> SurfaceInvariants:
        record = self._row(name)
        if record.get("family_params"):
            record = _family_record(record, params or {})
        elif params:
            raise CatalogError(f"surface {name!r} takes no parameters, got {params}")
        return SurfaceInvariants.from_record(record)

    def representatives(self) -> list[SurfaceInvariants]:
        """One concrete surface per catalog row (families at default params)."""
        result = []
        for record in self.records:
            name = record["name"]
            params = None
            if record.get("family_params"):
                params = {p: v.default for p, v in FAMILIES[name][0].items()}
            result.append(self.lookup(name, params))
        return result


def _catalog_from_dict(data: dict[str, Any], source: str) -> Catalog:
    try:
        version = data["version"]
        records = tuple(data["surfaces"])
    except (KeyError, TypeError) as exc:
        raise CatalogError(f"malformed catalog {source}: {exc}") from exc
    seen = set()
    for record in records:
        if not isinstance(record, dict):
            raise CatalogError(f"catalog {source} has a non-object record {record!r}")
        name = record.get("name")
        if not name:
            raise CatalogError(f"catalog {source} has a record without a name")
        if not isinstance(name, str):
            raise CatalogError(f"catalog {source} has a surface name {name!r} that is not a string")
        if name in seen:
            raise CatalogError(f"catalog {source} has duplicate surface {name!r}")
        seen.add(name)
        declared = record.get("family_params")
        if not declared:
            SurfaceInvariants.from_record(record)  # a malformed or invalid literal row fails here
        elif name not in FAMILIES:
            raise CatalogError(
                f"catalog {source}: surface {name!r} declares family parameters "
                f"{declared!r} but no family formula is registered for it"
            )
        elif declared != list(FAMILIES[name][0]):
            raise CatalogError(
                f"catalog {source}: family {name!r} takes parameters "
                f"{list(FAMILIES[name][0])}, its row declares {declared!r}"
            )
    return Catalog(version=version, records=records)


def load_catalog(path: str | Path | None = None) -> Catalog:
    """Load a catalog: explicit path, else $HILBPROD_CATALOG, else the shipped one."""
    if path is None:
        path = os.environ.get(CATALOG_ENV_VAR)
    if path is None:
        text = (Path(__file__).parent / "data" / "catalog.json").read_text(encoding="utf-8")
        return _catalog_from_dict(json.loads(text), "builtin")
    p = Path(path)
    if not p.exists():
        raise CatalogError(f"catalog file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except OSError as exc:
        raise CatalogError(f"catalog {p} cannot be read: {exc}") from exc
    except ValueError as exc:
        raise CatalogError(f"catalog {p} is not valid JSON: {exc}") from exc
    return _catalog_from_dict(data, str(p))


def catalog_lookup(name: str, params: Mapping[str, int] | None = None) -> SurfaceInvariants:
    """Look up a surface in ``load_catalog()`` by name, instantiating family parameters."""
    return load_catalog().lookup(name, params)
