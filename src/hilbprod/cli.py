"""Command-line interface.

Subcommands: ``catalog``, ``invariants``, ``decide``, ``series``, ``scan``,
``aut``.  Exit codes: 0 success, 1 usage error (bad arguments, mismatched
dimensions, an output path that cannot be written), 2 data or validation
error (unknown or unreadable catalog entry, missing Hodge data, failed
surface validation).

``--output-format structured`` emits JSON that parses back into the
originating record types; ``--output`` redirects it to a file.  The default
catalog can be overridden with ``--catalog`` or the ``HILBPROD_CATALOG``
environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Sequence

from ._version import __version__
from .decision import aut_shape, decide, kummer_reinterpretation
from .errors import DataError, UsageError
from .invariants import (
    euler_char_tuple,
    euler_series,
    hodge_p0_series,
    hodge_p0_tuple_vector,
    poincare_polynomial_tuple,
    poincare_series,
    require_hodge_data,
)
from .partitions import Partition, int_list, int_literal
from .scanner import scan_conjecture, verify_lemma_inequalities, verify_majorization
from .surfaces import StructuralClass, load_catalog

SHOW_CHOICES = ("betti", "euler", "hodge")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_params(text: str | None) -> dict[str, int]:
    if not text:
        return {}
    params = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            raise UsageError(f"empty item in parameter list: {text!r}")
        if "=" not in item:
            raise UsageError(f"parameter {item!r} is not of the form name=value")
        name, _, value = item.partition("=")
        name = name.strip()
        if name in params:
            raise UsageError(f"parameter {name!r} is given more than once")
        try:
            params[name] = int_literal(value.strip())
        except ValueError as exc:
            raise UsageError(f"parameter value {value!r} is not an integer") from exc
    return params


def _parse_partition(text: str) -> Partition:
    partition, reordered = Partition.parse(text)
    if reordered:
        print(
            f"notice: partition {text} canonicalized to {partition.render()}",
            file=sys.stderr,
        )
    return partition


def _emit(payload: Any, human_lines: list[str], args: argparse.Namespace) -> None:
    if args.output_format == "structured":
        text = json.dumps(payload, indent=2, sort_keys=False)
    else:
        text = "\n".join(human_lines)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _load_surface(args: argparse.Namespace):
    catalog = load_catalog(args.catalog)
    return catalog.lookup(args.surface, _parse_params(getattr(args, "params", None)))


# -- subcommand handlers -----------------------------------------------------


def _cmd_catalog(args: argparse.Namespace) -> int:
    catalog = load_catalog(args.catalog)
    if args.surface:
        surface = catalog.lookup(args.surface, _parse_params(args.params))
        _emit(surface.to_record(), [surface.describe()], args)
        return 0
    records = []
    lines = []
    for name in catalog.names():
        record = catalog.record(name)
        records.append(record)
        family = record.get("family_params") or []
        if family:
            lines.append(f"{name}  (family, parameters: {', '.join(family)})")
        else:
            lines.append(
                f"{name}  b0={record['b0']} b1={record['b1']} "
                f"b2={record['b2']} chi={record['chi']}"
            )
    _emit({"version": catalog.version, "surfaces": records}, lines, args)
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    surface = _load_surface(args)
    partition = _parse_partition(args.partition)
    show = args.show.split(",") if args.show else ["betti", "euler"]
    for item in show:
        if item not in SHOW_CHOICES:
            raise UsageError(
                f"unknown invariant {item!r}; choose from {', '.join(SHOW_CHOICES)}"
            )
    payload: dict[str, Any] = {
        "surface": surface.name,
        "partition": list(partition.parts),
    }
    lines = [f"surface: {surface.describe()}", f"partition: {partition}"]
    if "betti" in show:
        poly = poincare_polynomial_tuple(surface, partition)
        payload["betti"] = list(poly.coefficients)
        lines.append(f"betti: {list(poly.coefficients)}")
    if "euler" in show:
        chi = euler_char_tuple(surface, partition)
        payload["euler"] = chi
        lines.append(f"euler characteristic: {chi}")
    if "hodge" in show:
        vector = hodge_p0_tuple_vector(surface, partition)
        payload["hodge_p0"] = vector
        lines.append(f"h^(p,0) for p = 0..{2 * partition.n}: {vector}")
    _emit(payload, lines, args)
    return 0


def _cmd_decide(args: argparse.Namespace) -> int:
    surface = _load_surface(args)
    if args.kummer:
        surface = kummer_reinterpretation(surface)
    a = _parse_partition(args.a)
    b = _parse_partition(args.b)
    verdict = decide(surface, a, b)
    lines = [
        f"surface: {surface.name}",
        f"a = {a}, b = {b}",
        f"outcome: {verdict.outcome.value}",
    ]
    if verdict.witness:
        w = verdict.witness
        where = f" at index {w.index}" if w.index is not None else ""
        lines.append(
            f"witness: {w.invariant}{where}: {w.value_a} vs {w.value_b}"
        )
    for rule in verdict.rules_fired:
        lines.append(f"rule fired: {rule.rule_id} ({rule.detail})")
    for note in verdict.notes:
        lines.append(f"note: {note}")
    _emit(verdict.to_dict(), lines, args)
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    surface = _load_surface(args)
    if args.kind == "poincare":
        series = poincare_series(surface, args.truncation)
    elif args.kind == "euler":
        series = euler_series(surface.chi, args.truncation)
    else:  # hodge-p0
        series = hodge_p0_series(*require_hodge_data(surface), args.truncation)
    dump = series.dump()
    payload = {
        "surface": surface.name,
        "kind": args.kind,
        "truncation": args.truncation,
        "terms": dump.splitlines(),
    }
    _emit(payload, [dump], args)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    # fail on an unwritable path before the scan, not after it: append mode
    # creates a missing file and never truncates an existing one
    for path in (args.csv, args.records, args.output):
        if path:
            open(path, "a").close()
    workers = args.workers
    if args.kind in ("lemma-diff-length", "lemma-same-length"):
        mode = "diff_length" if args.kind == "lemma-diff-length" else "same_length"
        report = verify_lemma_inequalities(
            args.n_max, args.p_max, mode, workers=workers
        )
    elif args.kind == "majorization":
        report = verify_majorization(
            int_list(args.k_set, "integer list"), args.n_max, workers=workers
        )
    else:  # conjecture
        report = scan_conjecture(
            int_list(args.k_set, "integer list"), args.n_max, workers=workers
        )
    if args.csv:
        report.write_csv(args.csv)
    if args.records:
        report.write_records(args.records)
    lines = [
        f"scan: {report.scan_kind}",
        f"parameters: {dict(report.parameters)}",
        f"pairs checked: {report.pairs_checked}",
        f"violations: {len(report.violations)}",
        f"wall time: {report.wall_time_ms} ms",
        f"engine version: {report.engine_version}",
    ]
    shown = 20
    for v in report.violations[:shown]:
        lines.append(
            f"  {v.form}: n={v.n} a=({','.join(map(str, v.a))}) "
            f"b=({','.join(map(str, v.b))}) k_or_p={v.k_or_p} "
            f"values {v.value_a} vs {v.value_b}"
        )
    if len(report.violations) > shown:
        lines.append(
            f"  ... {len(report.violations) - shown} more violations "
            "(use --output-format structured or --csv for all of them)"
        )
    # human output prints none of the payload: build its dict per violation
    # only for structured output
    payload = report.to_dict() if args.output_format == "structured" else None
    _emit(payload, lines, args)
    return 0


def _cmd_aut(args: argparse.Namespace) -> int:
    partition = _parse_partition(args.partition)
    shape = aut_shape(partition)
    payload = shape.to_dict()
    lines = [shape.render()]
    note = None
    if args.surface:
        surface = _load_surface(args)
        payload["surface"] = surface.name
        if surface.structural_class is StructuralClass.GENERIC:
            note = (
                "formal shape: the splitting is proved for the K3 and Kummer "
                "structural classes, unverified for this surface"
            )
    else:
        note = (
            "formal shape: the splitting is proved for the K3 and Kummer "
            "structural classes"
        )
    if note:
        payload["note"] = note
        lines.append(f"note: {note}")
    _emit(payload, lines, args)
    return 0


# -- parser ------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--output-format",
        choices=("human", "structured"),
        default="human",
        help="human-readable text or round-trippable JSON",
    )
    parser.add_argument("--output", help="write the result to this path")
    parser.add_argument("--catalog", help="catalog file (default: builtin or $HILBPROD_CATALOG)")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="hilbprod",
        description=(
            "Exact Betti, Hodge and Euler invariants of products of Hilbert "
            "schemes of points, an isomorphism decision engine, and "
            "desk-scale verification scans."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list the surface catalog or one entry")
    p.add_argument("--surface", help="catalog name to show")
    p.add_argument("--params", help="family parameters, e.g. d=3 or g1=2,g2=3")
    _add_common(p)
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser("invariants", help="invariants of a product of Hilbert schemes")
    p.add_argument("--surface", required=True)
    p.add_argument("--params")
    p.add_argument("--partition", required=True, help='partition literal, e.g. "1,2"')
    p.add_argument("--show", help="comma list from: betti,euler,hodge")
    _add_common(p)
    p.set_defaults(handler=_cmd_invariants)

    p = sub.add_parser("decide", help="decide non-isomorphism of two products")
    p.add_argument("--surface", required=True)
    p.add_argument("--params")
    p.add_argument("--a", required=True, help="first partition literal")
    p.add_argument("--b", required=True, help="second partition literal")
    p.add_argument(
        "--kummer",
        action="store_true",
        help="interpret parts as generalized Kummer varieties over the "
        "(abelian) surface",
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_decide)

    p = sub.add_parser("series", help="dump a generating series, one term per line")
    p.add_argument("--surface", required=True)
    p.add_argument("--params")
    p.add_argument("--truncation", type=int_literal, required=True)
    p.add_argument(
        "--kind", choices=("poincare", "euler", "hodge-p0"), default="poincare"
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("scan", help="run a verification scan and report")
    p.add_argument(
        "--kind",
        required=True,
        choices=(
            "lemma-diff-length",
            "lemma-same-length",
            "majorization",
            "conjecture",
        ),
    )
    p.add_argument("--n-max", type=int_literal, required=True)
    p.add_argument("--p-max", type=int_literal, default=6, help="lemma scans only")
    p.add_argument("--k-set", default="4,5", help="colour counts, e.g. 3,4,5")
    p.add_argument("--workers", type=int_literal, default=1)
    p.add_argument("--csv", help="also write the tabular export to this path")
    p.add_argument(
        "--records",
        help="also write the JSON Lines record set (header + one record "
        "per violation) to this path",
    )
    _add_common(p)
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("aut", help="automorphism-group factorization shape")
    p.add_argument("--partition", required=True)
    p.add_argument("--surface")
    p.add_argument("--params")
    _add_common(p)
    p.set_defaults(handler=_cmd_aut)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits for usage errors, -h, --version
        return exc.code if isinstance(exc.code, int) else 1
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # reader gone (`| head`): no traceback, none at exit either
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except OSError as exc:  # an --output, --csv or --records path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
