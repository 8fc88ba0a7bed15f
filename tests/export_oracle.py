"""Test-only oracle: a scan report's exports from its dict forms.

The report writes its CSV, JSON Lines and fingerprint as one f-string
per violation.  The oracle builds one dict (or row) per violation instead
and hands it to ``json.dumps(sort_keys=True)`` or ``csv.writer``, so
agreement byte for byte is an independent check of those row formats.
"""

from __future__ import annotations

import csv
import json
from typing import Any

from hilbprod.scanner import CSV_COLUMNS, ScanReport, Violation


def to_records(report: ScanReport) -> list[dict[str, Any]]:
    """Record-set form: one header record, then one record per violation."""
    header = report.to_dict()
    del header["violations"]
    header["record"] = "header"
    return [header] + [{**v.to_dict(), "record": "violation"} for v in report.violations]


def _csv_row(v: Violation) -> tuple[Any, ...]:
    """The violation as a CSV row: the parts tuples joined by commas."""
    return v[:2] + (",".join(map(str, v.a)), ",".join(map(str, v.b))) + v[4:]


def csv_rows(report: ScanReport) -> list[dict[str, Any]]:
    """One dict per violation, keyed by ``CSV_COLUMNS``."""
    return [dict(zip(CSV_COLUMNS, _csv_row(v))) for v in report.violations]


def oracle_exports(report: ScanReport, tmp_path) -> list[bytes]:
    """fingerprint(), CSV and JSON Lines as the dict forms give them:
    ``json.dumps(sort_keys=True)`` over ``to_dict()`` and ``to_records``,
    ``csv.writer`` over ``csv_rows``, written through the same file modes."""
    content = report.to_dict()
    del content["wall_time_ms"]
    csv_path, records_path = tmp_path / "oracle.csv", tmp_path / "oracle.jsonl"
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(row.values() for row in csv_rows(report))
    with open(records_path, "w") as handle:
        for record in to_records(report):
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return [
        json.dumps(content, sort_keys=True).encode(),
        csv_path.read_bytes(),
        records_path.read_bytes(),
    ]
