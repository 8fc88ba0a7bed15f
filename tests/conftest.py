"""Helpers shared by the test modules."""

from __future__ import annotations

import hilbprod.series as series


def fresh_tables(monkeypatch) -> list[dict]:
    """Empty table registries, so that every table grows from row 0 again."""
    registries = []
    for name in ("_BETTI_TABLES", "_EULER_TABLES", "_HODGE_P0_TABLES", "_HODGE_TABLES"):
        registries.append({})
        monkeypatch.setattr(series, name, registries[-1])
    return registries
