"""Catalog of base-surface invariants with validation.

Each surface record carries the Betti numbers (b0, b1, b2), the topological
Euler characteristic chi, and optionally the Hodge numbers h^{1,0} and
h^{2,0}.  Poincare duality on each component gives b3 = b1 and b4 = b0, so
every surface, connected or not, has ``chi = 2*b0 - 2*b1 + b2``; Hodge
theory forces ``b1 = 2*h10``.  Both are enforced by :func:`validate`.

h^{2,0} cannot be recovered from Betti numbers alone, so the shipped catalog
carries it only where the value is standard for the surface class; rows
without it refuse Hodge-number operations rather than guessing.

The catalog is a versioned JSON document shipped with the package (field
names are the compatibility contract); custom surfaces enter through the same
schema via ``HILBPROD_CATALOG`` or an explicit path.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Mapping

from .errors import CatalogError, DataError

__all__ = [
    "StructuralClass",
    "SurfaceInvariants",
    "Catalog",
    "load_catalog",
    "catalog_lookup",
    "validate",
    "CATALOG_ENV_VAR",
]

CATALOG_ENV_VAR = "HILBPROD_CATALOG"

K3_INVARIANTS = (1, 0, 22, 24, 0, 1)
ABELIAN_INVARIANTS = (1, 4, 6, 0)


class StructuralClass(enum.Enum):
    GENERIC = "generic"
    K3 = "k3"
    ABELIAN_FOR_KUMMER = "abelian_for_kummer"


@dataclass(frozen=True)
class SurfaceInvariants:
    name: str
    b0: int
    b1: int
    b2: int
    chi: int
    h10: int | None = None
    h20: int | None = None
    structural_class: StructuralClass = StructuralClass.GENERIC
    family_params: tuple[tuple[str, int], ...] = ()
    provenance: str = ""

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
            surface = cls(
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
        except (KeyError, ValueError, TypeError) as exc:
            raise CatalogError(f"malformed surface record: {exc}") from exc
        hodge = [h for h in (surface.h10, surface.h20) if h is not None]
        numbers = [surface.b0, surface.b1, surface.b2, surface.chi, *hodge]
        if any(type(v) is not int for v in numbers):  # JSON true/false are not numbers
            raise CatalogError(
                f"malformed surface record {surface.name!r}: b0, b1, b2, chi, h10 "
                "and h20 must be integers"
            )
        return surface

    def describe(self) -> str:
        hodge = ""
        if self.h10 is not None or self.h20 is not None:
            hodge = f", h10={self.h10}, h20={self.h20}"
        return (
            f"{self.name}: b0={self.b0}, b1={self.b1}, b2={self.b2}, "
            f"chi={self.chi}{hodge}"
        )


def validate(s: SurfaceInvariants) -> list[str]:
    """Diagnostics for every violated invariant; empty list means ok."""
    diagnostics = []
    if s.b0 < 1:
        diagnostics.append(f"b0 must be positive, got {s.b0}")
    if s.b1 < 0:
        diagnostics.append(f"b1 must be nonnegative, got {s.b1}")
    if s.b2 < 1:
        diagnostics.append(f"b2 must be positive, got {s.b2}")
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


def require_valid(s: SurfaceInvariants) -> SurfaceInvariants:
    diagnostics = validate(s)
    if diagnostics:
        raise DataError(
            f"surface {s.name!r} fails validation: " + "; ".join(diagnostics)
        )
    return s


# -- family formulas ----------------------------------------------------------

_FamilyFn = Callable[[dict[str, int]], SurfaceInvariants]


def _params_tuple(params: dict[str, int]) -> tuple[tuple[str, int], ...]:
    return tuple(sorted(params.items()))


def _need(params: Mapping[str, int], names: tuple[str, ...], family: str) -> list[int]:
    missing = [n for n in names if n not in params]
    extra = [n for n in params if n not in names]
    if missing or extra:
        raise CatalogError(
            f"family {family!r} takes parameters {list(names)}; "
            f"missing {missing}, unexpected {extra}"
        )
    values = []
    for n in names:
        v = params[n]
        if not isinstance(v, int):
            raise CatalogError(f"parameter {n}={v!r} of {family!r} must be an integer")
        values.append(v)
    return values


def _del_pezzo(params: dict[str, int]) -> SurfaceInvariants:
    (d,) = _need(params, ("d",), "del_pezzo")
    if not 1 <= d <= 9:
        raise CatalogError(f"del Pezzo degree d must be in 1..9, got {d}")
    return SurfaceInvariants(
        name="del_pezzo",
        b0=1,
        b1=0,
        b2=10 - d,
        chi=12 - d,
        h10=0,
        h20=0,
        family_params=_params_tuple(params),
        provenance="standard invariants of a degree-d del Pezzo surface",
    )


def _hirzebruch(params: dict[str, int]) -> SurfaceInvariants:
    (n,) = _need(params, ("n",), "hirzebruch")
    if n < 1:
        raise CatalogError(f"Hirzebruch index n must be >= 1, got {n}")
    return SurfaceInvariants(
        name="hirzebruch",
        b0=1,
        b1=0,
        b2=2,
        chi=4,
        h10=0,
        h20=0,
        family_params=_params_tuple(params),
        provenance="standard invariants of a Hirzebruch surface F_n "
        "(independent of n)",
    )


def _ruled(params: dict[str, int]) -> SurfaceInvariants:
    (g,) = _need(params, ("g",), "ruled")
    if g < 0:
        raise CatalogError(f"genus g must be >= 0, got {g}")
    return SurfaceInvariants(
        name="ruled",
        b0=1,
        b1=2 * g,
        b2=2,
        chi=4 * (1 - g),
        h10=g,
        family_params=_params_tuple(params),
        provenance="standard invariants of a ruled surface over a genus-g curve; "
        "h20 omitted",
    )


def _elliptic_chi1(params: dict[str, int]) -> SurfaceInvariants:
    (g,) = _need(params, ("g",), "elliptic_chi1")
    if g < 0:
        raise CatalogError(f"genus g must be >= 0, got {g}")
    return SurfaceInvariants(
        name="elliptic_chi1",
        b0=1,
        b1=2 * g,
        b2=4 * g + 10,
        chi=12,
        h10=g,
        family_params=_params_tuple(params),
        provenance="elliptic surface over a genus-g curve with holomorphic Euler "
        "characteristic 1; h20 omitted",
    )


def _elliptic_chi2(params: dict[str, int]) -> SurfaceInvariants:
    (g,) = _need(params, ("g",), "elliptic_chi2")
    if g < 0:
        raise CatalogError(f"genus g must be >= 0, got {g}")
    return SurfaceInvariants(
        name="elliptic_chi2",
        b0=1,
        b1=2 * g,
        b2=4 * g + 22,
        chi=24,
        h10=g,
        family_params=_params_tuple(params),
        provenance="elliptic surface over a genus-g curve with holomorphic Euler "
        "characteristic 2; h20 omitted",
    )


def _elliptic_en(params: dict[str, int]) -> SurfaceInvariants:
    (n,) = _need(params, ("n",), "elliptic_en")
    if n < 3:
        raise CatalogError(f"E(n) needs n >= 3, got {n}")
    return SurfaceInvariants(
        name="elliptic_en",
        b0=1,
        b1=0,
        b2=12 * n - 2,
        chi=12 * n,
        h10=0,
        family_params=_params_tuple(params),
        provenance="elliptic surface E(n) over the projective line; h20 omitted",
    )


def _product_of_curves(params: dict[str, int]) -> SurfaceInvariants:
    g1, g2 = _need(params, ("g1", "g2"), "product_of_curves")
    if g1 <= 1 or g2 <= 1:
        raise CatalogError(f"both genera must exceed 1, got g1={g1}, g2={g2}")
    return SurfaceInvariants(
        name="product_of_curves",
        b0=1,
        b1=2 * (g1 + g2),
        b2=2 + 4 * g1 * g2,
        chi=4 * (1 - g1) * (1 - g2),
        h10=g1 + g2,
        family_params=_params_tuple(params),
        provenance="product of two curves of genus g1, g2 > 1; h20 omitted",
    )


_FAMILIES: dict[str, _FamilyFn] = {
    "del_pezzo": _del_pezzo,
    "hirzebruch": _hirzebruch,
    "ruled": _ruled,
    "elliptic_chi1": _elliptic_chi1,
    "elliptic_chi2": _elliptic_chi2,
    "elliptic_en": _elliptic_en,
    "product_of_curves": _product_of_curves,
}

# documented defaults used when a family row must be instantiated as a
# concrete surface ("every catalog surface" in tests and scans)
FAMILY_DEFAULTS: dict[str, dict[str, int]] = {
    "del_pezzo": {"d": 3},
    "hirzebruch": {"n": 2},
    "ruled": {"g": 2},
    "elliptic_chi1": {"g": 1},
    "elliptic_chi2": {"g": 2},
    "elliptic_en": {"n": 3},
    "product_of_curves": {"g1": 2, "g2": 2},
}


# -- catalog ------------------------------------------------------------------


@dataclass(frozen=True)
class Catalog:
    version: int
    records: tuple[dict[str, Any], ...]

    def names(self) -> list[str]:
        return [r["name"] for r in self.records]

    def record(self, name: str) -> dict[str, Any]:
        for r in self.records:
            if r["name"] == name:
                return r
        raise CatalogError(
            f"unknown surface {name!r}; known: {', '.join(self.names())}"
        )

    def lookup(
        self, name: str, params: Mapping[str, int] | None = None
    ) -> SurfaceInvariants:
        record = self.record(name)
        declared = record.get("family_params", [])
        if declared:
            family = _FAMILIES.get(name)
            if family is None:
                raise CatalogError(
                    f"surface {name!r} declares family parameters {declared} "
                    "but no family formula is registered for it"
                )
            return require_valid(family(dict(params or {})))
        if params:
            raise CatalogError(f"surface {name!r} takes no parameters, got {params}")
        return require_valid(SurfaceInvariants.from_record(record))

    def representatives(self) -> list[SurfaceInvariants]:
        """One concrete surface per catalog row (families at default params)."""
        result = []
        for record in self.records:
            name = record["name"]
            params = FAMILY_DEFAULTS.get(name) if record.get("family_params") else None
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
        if name in seen:
            raise CatalogError(f"catalog {source} has duplicate surface {name!r}")
        seen.add(name)
        if not record.get("family_params"):
            SurfaceInvariants.from_record(record)  # a malformed literal row fails here
    return Catalog(version=version, records=records)


def load_catalog(path: str | Path | None = None) -> Catalog:
    """Load a catalog: explicit path, else $HILBPROD_CATALOG, else the shipped one."""
    if path is None:
        path = os.environ.get(CATALOG_ENV_VAR)
    if path is None:
        text = (
            resources.files("hilbprod").joinpath("data/catalog.json").read_text()
        )
        return _catalog_from_dict(json.loads(text), "builtin")
    p = Path(path)
    if not p.exists():
        raise CatalogError(f"catalog file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except ValueError as exc:
        raise CatalogError(f"catalog {p} is not valid JSON: {exc}") from exc
    return _catalog_from_dict(data, str(p))


def catalog_lookup(
    name: str,
    params: Mapping[str, int] | None = None,
    catalog: Catalog | None = None,
) -> SurfaceInvariants:
    """Look up a surface by catalog name, instantiating family parameters."""
    return (catalog or load_catalog()).lookup(name, params)
