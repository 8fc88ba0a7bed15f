"""Exhaustive desk-scale scans over partition pairs, with reproducible reports.

Three scan families:

* ``verify_lemma_inequalities`` checks the strict binomial-product
  inequalities between partitions of different lengths (resp. of the same
  length, oriented at the first differing part), together with their
  intermediate product forms, for every qualifying pair up to ``n_max`` and
  every shift ``1 <= p <= p_max``.  Every comparison is exact, between
  integers, never floating point: each parts tuple of n carries, per p,
  the key ``prod(part+p) * p**(n - len)``, ordered as the shifted ratios
  ``prod((part+p)/p)`` are, so a pair costs no big-int multiplication;
  the cross-multiplied values are built only for a violation, and at
  p = 1 the three forms are one comparison.  A violation is a
  first-class finding, not an engine error; these inequalities genuinely
  fail once unit parts accumulate (earliest witnesses: (3,4) vs (1,1,5) at
  p=5 for the cross-ratio form, both sides 72/25; (2,3,3) vs (1,1,1,5) at
  p=1 for the unit-shift form, both products 48; (2,2,4) vs (1,1,1,5) at
  p=4 for the binomial form, both 15750; same-length (1,4,5) vs (2,2,6) at
  p=4 for the cross-ratio form, (1,5,5) vs (2,2,7) at p=1 for the unit-shift
  form, both 72, and (1,4,6) vs (2,2,7) at p=5 for the binomial form, both
  349272).
* ``verify_majorization`` asserts that k-coloured partition counts respect
  strict majorization (k >= 3) on every comparable same-length pair.  A
  partition counts ``prod c_k(part)`` with every ``c_k(m) >= 1``, and the
  one-unit transfers that generate strict majorization raise it wherever
  ``c_k`` is strictly log-concave, ``c_k(m)² > c_k(m-1) c_k(m+1)`` for ``2
  <= m <= n - 2``; that certifies n, one pass per k up to ``n_max`` finds
  the largest certified n, and only an n above it is compared pair by
  pair.
* ``scan_conjecture`` records every collision of coloured-count tuples on
  distinct same-length pairs.  It groups each length bucket of ``n_max``
  into classes of equal (k, value) and emits the pairs inside each class;
  adding u unit parts to both sides of a pair multiplies both counts by
  ``c_k(1)^u = k^u``, so every smaller n's collisions are those of
  ``n_max`` whose sides share u = n_max - n unit parts, with them sliced
  off.  It reports and never asserts: a collision would be a finding, not
  a test failure.

Reports are deterministic for fixed parameters and engine version: each scan
merges the violations of each n, in order of n and in one process, through
``_scan`` (``wall_time_ms`` is the one volatile field and is excluded from
the fingerprint).  No scan counts the pairs it makes: ``pairs_checked`` is
the sum over n <= n_max of the closed forms ``_diff_length_pairs`` or
``_same_length_pairs``, read off ``_length_counts(n)``.  The scans hold
partitions as plain parts tuples, as ``Violation`` stores them; a
``Partition`` is built only where the public ``majorizes`` needs one, on the
pairwise fallback of the majorization scan.  Within one n, pairs come from
the length buckets of ``parts_by_length``, each parts tuple carrying the
values computed for it once: different-length pairs shorter first,
same-length pairs as combinations of one bucket, whose ascending
lexicographic order already puts the partition that is smaller at the first
differing part first.  The colour scans list their violations in that same
pair order, k ascending within a pair, though they do not loop over the
pairs.  The conjecture scan walks the partitions of ``n_max`` once per k
(``_products_by_length``), multiplying the per-part counts ``_part_counts(k,
n_max)`` along each partition's parts, and walks no smaller n; it builds the
parts tuples of ``n_max`` only where two partitions share a value.  The
majorization scan enumerates only an n whose log-concavity certificate
fails.

Each scan refuses, before any work, an input whose cost estimated in closed
form exceeds a fixed budget (``_refuse_above``): the conjecture scan by
p(n_max), the majorization scan by the counts p(m, r) it holds, and the
lemma scans by 3 p_max violations per pair and by the 3 (p_max + 1)
shift-product ints a bucket holds per partition.  No option lifts a budget.

A ``ScanReport`` refuses, when it is built, violations whose numbers are not
plain ints or whose parts are not tuples; each of its three exports writes
the rows of ``ScanReport._cells``, one f-string per violation, so importing
this module loads no ``csv``.
"""

from __future__ import annotations

import json
import time
from itertools import accumulate, chain, combinations, count, islice, product
from math import comb, prod
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from ._record import Record
from ._version import __version__
from .errors import UsageError, require_plain_ints
from .partitions import (
    Majorization,
    Partition,
    _products_by_length,
    colored_count_tuple,  # noqa: F401  kept importable here: perfbench traces it
    majorizes,
    parts_by_length,
)
from .series import GrowOnlyTable, euler_table

__all__ = [
    "Violation",
    "ScanReport",
    "verify_lemma_inequalities",
    "verify_majorization",
    "scan_conjecture",
    "CSV_COLUMNS",
]


class Violation(NamedTuple):
    """One failed comparison; the field order is the CSV column order."""

    scan_kind: str
    n: int
    a: tuple[int, ...]
    b: tuple[int, ...]
    k_or_p: int
    value_a: int
    value_b: int
    form: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {**self._asdict(), "a": list(self.a), "b": list(self.b)}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Violation":
        """The violation of ``d``, unchecked: the report that holds it checks
        its numbers."""
        return cls(
            d["scan_kind"],
            d["n"],
            tuple(d["a"]),
            tuple(d["b"]),
            d["k_or_p"],
            d["value_a"],
            d["value_b"],
            d.get("form", ""),
        )


CSV_COLUMNS = Violation._fields


def _plain_ints(values: Iterable[Any]) -> bool:
    """Whether every value is an int and none a bool or other subclass."""
    return {*map(type, values)} <= {int}


def _refuse_bad_field(v: Violation) -> None:
    """Raise ValueError naming the first field of ``v`` whose numbers are not
    plain ints, or whose parts are not a tuple; a bool is refused although it
    is an int."""
    for name in ("n", "k_or_p", "value_a", "value_b"):
        value = getattr(v, name)
        if type(value) is not int:
            raise ValueError(f"violation field {name} must be a plain int, got {value!r}")
    for name in ("a", "b"):
        parts = getattr(v, name)
        if type(parts) is not tuple:
            raise ValueError(f"violation field {name} must be a tuple, got {parts!r}")
        if not _plain_ints(parts):
            raise ValueError(f"violation field {name} must hold plain ints, got {parts!r}")


_CSV_SPECIAL = (",", '"', "\r", "\n")
_CSV_HEADER = ",".join(CSV_COLUMNS) + "\r\n"


def _csv_cell(value: Any) -> str:
    """``value`` as ``csv.writer`` writes a cell in the default dialect.

    ``None`` is empty, a float its ``repr``, anything else its ``str``;
    a text holding a comma, a quote or a line break is quoted, with its
    quotes doubled (QUOTE_MINIMAL).
    """
    text = "" if value is None else repr(value) if isinstance(value, float) else str(value)
    if any(special in text for special in _CSV_SPECIAL):
        return '"' + text.replace('"', '""') + '"'
    return text


# rows per write: one write per row costs more than joining a few hundred
_CHUNK_ROWS = 512

# matches no object a violation holds: ``_cells``'s "same object as the last
# row" checks start from it
_UNSET = object()


class ScanReport(Record):
    """The findings of one scan.

    Construction refuses (ValueError) a ``pairs_checked``, a
    ``wall_time_ms`` or a violation number that is not a plain int, and
    violation parts that are not a tuple, so every report hashes and can be
    exported: the exports write the violations' numbers into f-strings,
    which would print a bool as ``True`` where ``json.dumps`` prints
    ``true``, and the header's counts with ``json.dumps``, which would print
    ``true`` or ``1.5`` as a count.
    ``replace(**changes)`` builds a changed copy, checked in the same way.
    """

    __slots__ = (
        "scan_kind", "parameters", "pairs_checked", "violations", "wall_time_ms",
        "engine_version",
    )
    scan_kind: str
    parameters: tuple[tuple[str, Any], ...]
    pairs_checked: int
    violations: tuple[Violation, ...]
    wall_time_ms: int
    engine_version: str

    def __init__(
        self,
        scan_kind: str,
        parameters: tuple[tuple[str, Any], ...],
        pairs_checked: int,
        violations: tuple[Violation, ...],
        wall_time_ms: int,
        engine_version: str,
    ) -> None:
        (
            set_scan_kind, set_parameters, set_pairs_checked, set_violations,
            set_wall_time_ms, set_engine_version,
        ) = self._setters
        set_scan_kind(self, scan_kind)
        # a list (k_set read from JSON) is held as a tuple: the report hashes and stays as built
        parameters = tuple([(name, tuple(v) if type(v) is list else v) for name, v in parameters])
        set_parameters(self, parameters)
        set_pairs_checked(self, pairs_checked)
        # so is a list of violations; tuple() keeps a tuple as the same object
        set_violations(self, tuple(violations))
        set_wall_time_ms(self, wall_time_ms)
        set_engine_version(self, engine_version)
        self._check_ints()

    def parameter(self, name: str) -> Any:
        return dict(self.parameters)[name]

    def to_dict(self) -> dict[str, Any]:
        return {
            "scan_kind": self.scan_kind,
            "parameters": dict(self.parameters),
            "pairs_checked": self.pairs_checked,
            "violations": [v.to_dict() for v in self.violations],
            "wall_time_ms": self.wall_time_ms,
            "engine_version": self.engine_version,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ScanReport":
        return cls(
            scan_kind=d["scan_kind"],
            parameters=tuple(sorted(d["parameters"].items())),
            pairs_checked=d["pairs_checked"],
            violations=tuple(Violation.from_dict(v) for v in d["violations"]),
            wall_time_ms=d["wall_time_ms"],
            engine_version=d["engine_version"],
        )

    def fingerprint(self) -> str:
        """Canonical JSON of everything except the volatile wall time, as
        ``json.dumps(content, sort_keys=True)`` writes it."""
        content = {**self._header(), "violations": []}
        del content["wall_time_ms"], content["record"]
        # ``violations`` sorts last, so the header's text ends in its empty list
        head = json.dumps(content, sort_keys=True)
        texts = list(self._json_texts("fingerprint"))
        if not texts:
            return head
        # the list's brackets ride on its first and last texts, so the one
        # join is the only copy of the whole
        texts[0] = head[:-2] + texts[0]
        texts[-1] += "]}"
        return ", ".join(texts)

    def _header(self) -> dict[str, Any]:
        return {
            "scan_kind": self.scan_kind,
            "parameters": dict(self.parameters),
            "pairs_checked": self.pairs_checked,
            "wall_time_ms": self.wall_time_ms,
            "engine_version": self.engine_version,
            "record": "header",
        }

    @classmethod
    def from_records(cls, records: list[Mapping[str, Any]]) -> "ScanReport":
        if not records or records[0].get("record") != "header":
            raise ValueError("record set must start with a header record")
        violations = [r for r in records[1:] if r.get("record") == "violation"]
        return cls.from_dict({**records[0], "violations": violations})

    def write_records(self, path: str | Path) -> None:
        """JSON Lines: the header record, then one record per violation
        (``_cells``); ``from_records`` reads them back."""
        with open(path, "w") as handle:
            handle.write(json.dumps(self._header(), sort_keys=True) + "\n")
            _write_chunks(handle, self._json_texts("records"))

    def write_csv(self, path: str | Path) -> None:
        """The header row, then one row per violation in ``CSV_COLUMNS``
        order, quoted as ``csv.writer`` quotes it (``_cells``)."""
        rows = self._cells(
            "csv", lambda parts: _csv_cell(",".join(map(str, parts))), _csv_cell
        )
        with open(path, "w", newline="") as handle:
            handle.write(_CSV_HEADER)
            _write_chunks(handle, rows)

    def _check_ints(self) -> None:
        """Raise ValueError unless ``pairs_checked``, ``wall_time_ms`` and
        every violation's numbers are plain ints, and its parts tuples.

        One pass over the columns, each parts tuple object once; only a
        report that fails goes row by row, to name the field.
        """
        for name in ("pairs_checked", "wall_time_ms"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"report field {name} must be a plain int, got {value!r}")
        if not self.violations:
            return
        _, ns, a, b, ks, values_a, values_b, _ = zip(*self.violations)
        parts = a + b
        distinct = dict(zip(map(id, parts), parts)).values()
        if not (
            {*map(type, distinct)} <= {tuple}
            and _plain_ints(chain(ns, ks, values_a, values_b, chain.from_iterable(distinct)))
        ):
            for v in self.violations:
                _refuse_bad_field(v)

    def _json_texts(self, export: str) -> Iterator[str]:
        """Each violation as the JSON of ``export``, every text cell
        JSON-encoded (``_cells``)."""
        encode = json.JSONEncoder(sort_keys=True).encode
        return self._cells(export, encode, encode)

    def _cells(
        self,
        export: str,
        parts_text: Callable[[tuple[int, ...]], str],
        text: Callable[[Any], str],
    ) -> Iterator[str]:
        """Each violation as one row of ``export``, its parts tuples through
        ``parts_text`` and its kind and form through ``text``.

        Each row is one f-string: ``"csv"`` a CSV row in ``CSV_COLUMNS``
        order, ending in CRLF; ``"records"`` a JSON Lines violation record
        and ``"fingerprint"`` the same object without its record marker,
        keys in sorted order, as ``json.dumps(..., sort_keys=True)`` writes
        them.  The numbers go in as they are: ``_check_ints`` has made them
        plain ints, which need no quotes and print as ``json.dumps`` prints
        them.

        Each object becomes text once per call, through one memo keyed by
        ``id`` for the parts tuples and one for the kinds and forms (a kind
        or form may be the very tuple a part is, and the CSV writes the two
        differently): a scan has a few hundred distinct partitions behind
        tens of thousands of violations.  A row whose parts tuple or kind is
        the same object as in the row before reuses its text with no lookup,
        as a lemma pair's violations are consecutive; forms change from row
        to row, so they always go through the memo.  The memos live no
        longer than the call and the report keeps every object alive until
        then, so no id is reused.
        """
        csv_row = export == "csv"
        record = export == "records"
        parts: dict[int, str] = {}
        texts: dict[int, str] = {}
        last_a = last_b = last_kind = _UNSET
        for kind, n, a, b, k, value_a, value_b, form in self.violations:
            if a is not last_a:
                last_a = a
                text_a = parts.get(id(a))
                if text_a is None:
                    text_a = parts[id(a)] = parts_text(a)
            if b is not last_b:
                last_b = b
                text_b = parts.get(id(b))
                if text_b is None:
                    text_b = parts[id(b)] = parts_text(b)
            if kind is not last_kind:
                last_kind = kind
                text_kind = texts.get(id(kind))
                if text_kind is None:
                    text_kind = texts[id(kind)] = text(kind)
            text_form = texts.get(id(form))
            if text_form is None:
                text_form = texts[id(form)] = text(form)
            if csv_row:
                yield f"{text_kind},{n},{text_a},{text_b},{k},{value_a},{value_b},{text_form}\r\n"
            elif record:
                yield (
                    f'{{"a": {text_a}, "b": {text_b}, "form": {text_form}, "k_or_p": {k}, '
                    f'"n": {n}, "record": "violation", "scan_kind": {text_kind}, '
                    f'"value_a": {value_a}, "value_b": {value_b}}}\n'
                )
            else:
                yield (
                    f'{{"a": {text_a}, "b": {text_b}, "form": {text_form}, "k_or_p": {k}, '
                    f'"n": {n}, "scan_kind": {text_kind}, '
                    f'"value_a": {value_a}, "value_b": {value_b}}}'
                )


def _write_chunks(handle: IO[str], rows: Iterable[str]) -> None:
    """Write ``rows`` joined ``_CHUNK_ROWS`` at a time; no row is empty."""
    rows = iter(rows)
    while chunk := "".join(islice(rows, _CHUNK_ROWS)):
        handle.write(chunk)


# -- buckets: the violations of one n per scan -----------------------------
#
# A lemma bucket, and a majorization n whose certificate fails, make one call
# of ``_valued_pairs``, then one loop over the pairs it returns.  The colour
# scans otherwise work per partition.  No bucket counts its pairs: ``_scan``
# sums the closed forms ``_diff_length_pairs`` and ``_same_length_pairs``.


def _valued_pairs(
    n: int, values: Callable[[tuple[int, ...]], Any], mode: str
) -> Iterator[tuple[tuple[tuple[int, ...], Any], tuple[tuple[int, ...], Any]]]:
    """The pairs of one n, each side as (parts, values); ``values`` runs once
    per parts tuple of n.

    ``diff_length``: (shorter, longer) across length buckets.
    ``same_length``: distinct pairs within one bucket; a bucket is in
    ascending lexicographic order, so the first of each pair is the one that
    is smaller at the first differing part.
    """
    buckets = [
        [(parts, values(parts)) for parts in bucket]
        for _, bucket in sorted(parts_by_length(n).items())
    ]
    if mode == "same_length":
        return chain.from_iterable(combinations(bucket, 2) for bucket in buckets)
    return chain.from_iterable(product(*two) for two in combinations(buckets, 2))


def _shift_products(
    parts: tuple[int, ...], p_max: int
) -> tuple[list[int], list[int], list[int]]:
    """Per shift p, 1-indexed: the key ``prod(part+p) * p**(n - len)``, the
    binomial product ``prod C(part+p, p)`` and the shift product
    ``prod(part+p)``, for the partition ``parts`` of n.

    ``key_a < key_b`` exactly when ``prod(a+p) * p**len(b) < prod(b+p) *
    p**len(a)``: multiply both sides by ``p**(len(a) + len(b) - n) > 0``.
    At p = 1 the three coincide.
    """
    excess = sum(parts) - len(parts)
    key = [0] * (p_max + 1)
    binom = [0] * (p_max + 1)
    shift = [0] * (p_max + 1)
    for p in range(1, p_max + 1):
        sh = 1
        bi = 1
        for part in parts:
            sh *= part + p
            bi *= comb(part + p, p)
        key[p] = sh * p**excess
        binom[p] = bi
        shift[p] = sh
    return key, binom, shift


_LEMMA_FORMS = ("unit-shift-product", "shift-ratio-cross-multiplied", "binomial-product")


def _lemma_bucket(n: int, p_max: int, mode: str) -> list[Violation]:
    """Compare each pair's keys and binomial products, shift by shift; a
    failure at p = 1, where the three forms agree, gives three violations
    in form order."""
    scan_kind = f"lemma_{mode}"
    stream = _valued_pairs(n, lambda parts: _shift_products(parts, p_max), mode)
    higher = range(2, p_max + 1)
    violations: list[Violation] = []
    found = violations.append
    # every field is given, so skip the named tuple's Python-level __new__
    new = tuple.__new__
    for (a, (key_a, binom_a, shift_a)), (b, (key_b, binom_b, shift_b)) in stream:
        if not key_a[1] < key_b[1]:
            unit_a, unit_b = key_a[1], key_b[1]
            for form in _LEMMA_FORMS:
                found(new(Violation, (scan_kind, n, a, b, 1, unit_a, unit_b, form)))
        for p in higher:
            if not key_a[p] < key_b[p]:
                # the ratio prod (part+p)/p recorded cross-multiplied by p^length
                found(
                    new(Violation, (
                        scan_kind, n, a, b, p,
                        shift_a[p] * p ** len(b), shift_b[p] * p ** len(a),
                        "shift-ratio-cross-multiplied",
                    ))
                )
            if not binom_a[p] < binom_b[p]:
                found(
                    new(Violation, (
                        scan_kind, n, a, b, p,
                        binom_a[p], binom_b[p], "binomial-product",
                    ))
                )
    return violations


def _part_counts(k: int, n: int) -> list[int]:
    """``c_k(0..n)`` from the Euler rows: a partition counts ``prod c_k(part)``."""
    return [row[0] for row in euler_table(k).rows_upto(n)[: n + 1]]


def _length_rows(rows: list[list[int]], m: int) -> list[int]:
    """``p(m, r)`` for r = 0..m: the partitions of m into exactly r parts.

    ``p(m, r) = p(m-1, r-1) + p(m-r, r)``, as a partition of m into r parts
    has a unit part (remove it) or none (take 1 from every part).
    """
    return [0] + [
        rows[m - 1][r - 1] + (rows[m - r][r] if 2 * r <= m else 0) for r in range(1, m + 1)
    ]


_LENGTH_COUNTS = GrowOnlyTable(1, _length_rows)


def _length_counts(n: int) -> list[int]:
    """``p(n, r)`` for r = 0..n, row n of the grow-only table (callers only read it)."""
    return _LENGTH_COUNTS.rows_upto(n)[n]


def _same_length_pairs(n: int) -> int:
    """The distinct same-length pairs of partitions of n, from ``_length_counts``."""
    return sum(comb(count, 2) for count in _length_counts(n))


def _diff_length_pairs(n: int) -> int:
    """The pairs of partitions of n of different lengths, from ``_length_counts``."""
    counts = _length_counts(n)
    return (sum(counts) ** 2 - sum(c * c for c in counts)) // 2


def _certified_upto(k_tuple: tuple[int, ...], n_max: int) -> int:
    """The largest ``n <= n_max`` with ``c(m)² > c(m-1) c(m+1)`` on ``2..n-2``
    for every ``c = c_k``: a first failure at m certifies exactly the n <= m + 1.

    A certified n needs no enumeration.  A one-unit transfer from a part y
    to a part x <= y - 2, with ``1 <= x`` and ``x + y <= n``, multiplies the
    count by ``c(x+1) c(y-1) / (c(x) c(y))``.  As every ``c(m) >= 1``,
    ``c(m)² > c(m-1) c(m+1)`` for ``2 <= m <= n - 2`` makes ``c(m+1) /
    c(m)`` fall strictly on ``1..n-2``, so that factor exceeds 1.  The
    transfers within a length bucket close to strict majorization
    (Muirhead; Hardy, Littlewood and Polya), so the counts rise along every
    strictly comparable pair.  The pairwise loop of ``_majorization_pairs``
    is the one path that lists violations, in pair order, so every n above
    the certified one goes through it whole.
    """
    certified = n_max
    for k in k_tuple:
        c = _part_counts(k, n_max)
        for m in range(2, certified - 1):
            if not c[m] * c[m] > c[m - 1] * c[m + 1]:
                certified = m + 1
                break
    return certified


def _majorization_pairs(n: int, k_tuple: tuple[int, ...]) -> list[Violation]:
    rows = [_part_counts(k, n) for k in k_tuple]
    stream = _valued_pairs(
        n, lambda parts: [prod(map(c.__getitem__, parts)) for c in rows], "same_length"
    )
    violations: list[Violation] = []
    new = tuple.__new__  # every field is given, as in ``_lemma_bucket``
    for (a, values_a), (b, values_b) in stream:
        # a precedes b in one lexicographic length bucket, so a's prefix sum
        # is smaller at the first differing part: a never majorizes b
        if majorizes(Partition(b), Partition(a)) is not Majorization.STRICTLY_MAJORIZES:
            continue
        for k, low, high in zip(k_tuple, values_a, values_b):
            if not high > low:
                violations.append(
                    new(Violation, (
                        "majorization", n, a, b, k,
                        low, high, "strict-majorization-inequality",
                    ))
                )
    return violations


def _conjecture_buckets(k_tuple: tuple[int, ...], n_max: int) -> Iterator[list[Violation]]:
    """The collisions of each n = 1..n_max, in order, all read off the
    partitions of ``n_max``.

    A collision only grows upward: ``(1^u) + a`` and ``(1^u) + b`` count
    ``c_k(1)^u`` times what a and b count.  As ``c_k(1) = k``, and for k =
    0 every partition of n >= 1 counts 0, a pair of ``n_max`` whose sides
    both start with u unit parts collides exactly when the pair without
    them, of ``n_max - u``, does.  So each k's walk of ``n_max``
    (``_products_by_length``) is the only one, and its values are dropped
    before the next k's: a length bucket holding some value twice is
    grouped into classes of equal value, and the pairs inside each class
    are the collisions of ``n_max``, at positions i < j of the
    lexicographic bucket.  Sorted by (length, i, j, k), the order of a loop
    over each bucket's combinations, they name their parts tuples from
    ``parts_by_length(n_max)``, built only when there is a collision.  The
    collisions of ``n = n_max - u`` are those whose sides share u unit
    parts, with the parts sliced off: slicing u leading units keeps the
    order, and the value is recomputed over the sliced parts.
    """
    found = []
    for k in k_tuple:
        for r, values in enumerate(_products_by_length(n_max, _part_counts(k, n_max))):
            if len(set(values)) < len(values):
                classes: dict[int, list[int]] = {}
                for i, value in enumerate(values):
                    classes.setdefault(value, []).append(i)
                found += [
                    (r, i, j, k)
                    for members in classes.values()
                    for i, j in combinations(members, 2)
                ]
    by_n: list[list[Violation]] = [[] for _ in range(n_max + 1)]
    if found:
        buckets = parts_by_length(n_max)
        counts = {k: _part_counts(k, n_max).__getitem__ for k in k_tuple}
        # each witness of n_max, at (length, position), once: its tails are
        # shared by every pair it is in
        witnesses = {(r, x) for r, i, j, _ in found for x in (i, j)}
        tails = {(r, x): _unit_tails(buckets[r][x]) for r, x in witnesses}
        new = tuple.__new__  # every field is given, as in ``_lemma_bucket``
        for r, i, j, k in sorted(found):
            count = counts[k]
            for u, (tail_a, tail_b) in enumerate(zip(tails[r, i], tails[r, j])):
                value = prod(map(count, tail_a))
                by_n[n_max - u].append(
                    new(Violation, (
                        "conjecture", n_max - u, tail_a, tail_b, k, value, value, "collision",
                    ))
                )
    yield from by_n[1:]


def _unit_tails(parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """``parts[u:]`` for u = 0 up to the number of unit parts."""
    return [parts[u:] for u in range(parts.count(1) + 1)]


# -- budgets: each scan's cost, estimated in closed form before any work ----
#
# No option lifts a limit.

# partitions of n_max that the conjecture scan walks per k, holding one k's
# values at a time: p(71) = 4,697,205 is the largest p(n) within it
_WALK_LIMIT = 5_000_000
# counts p(m, r), m <= n_max, that the majorization scan's pair counts hold,
# C(n_max + 2, 2) of them: n_max = 3,000 peaks at about 260 MB
_COUNT_LIMIT = comb(3_000 + 2, 2)
# violations a lemma scan can record, at most 2 p_max + 1 per pair, bounded
# by 3 p_max per pair: diff_length at n_max = 20, p_max = 6 (8.03M) peaks at
# about 130 MB, at n_max = 22 (21.3M) at about 330 MB
_VIOLATION_LIMIT = 10_000_000
# ints of ``_shift_products`` a lemma bucket holds, 3 (p_max + 1) per
# partition of n: same_length just under it, at (n_max, p_max) = (4, 133,332),
# (8, 30,300) and (10, 15,290), peaks at 113-118 MB in 0.7-2.8 s
_HELD_LIMIT = 2_000_000


def _refuse_above(
    n_max: int,
    estimates: Iterable[int],
    limit: int,
    name: str,
    text: str,
    least: int = 1,
    too_large: str = "",
) -> None:
    """Raise UsageError when the estimate at ``n_max`` exceeds ``limit``.

    ``estimates`` yields the estimate at n = 1, 2, ..., which never falls as
    n grows, so it is read up to ``n_max`` or the first n over the limit,
    whichever comes first.  The message is ``text`` with the estimate,
    written ``name.format(n)``, in place of its ``{}``, and then the largest
    n_max under the limit, or ``too_large`` when that is below ``least``,
    the smallest n_max the scan runs.
    """
    for n, estimate in zip(range(1, n_max + 1), estimates):
        if estimate > limit:
            at = name.format(n_max) if n == n_max else f"{name.format(n_max)} >= {name.format(n)}"
            largest = f"n_max <= {n - 1}" if n > least else too_large
            raise UsageError(
                f"{text.format(f'{at} = {estimate:,}')}; the limit is {limit:,} ({largest})"
            )


def _refuse_a_long_walk(n_max: int) -> None:
    """Raise UsageError when ``p(n_max)`` exceeds ``_WALK_LIMIT``."""
    _refuse_above(
        n_max,
        (sum(_length_counts(n)) for n in count(1)),
        _WALK_LIMIT,
        "p({})",
        f"the conjecture scan at n_max = {n_max} would walk {{}} partitions per k",
    )


# -- the driver ------------------------------------------------------------


def _k_tuple(k_set: Iterable[int]) -> tuple[int, ...]:
    ks = set(k_set)
    if not ks:
        raise UsageError("k_set must be nonempty")
    if not _plain_ints(ks):
        raise UsageError(f"k_set must hold plain ints, got {ks!r}")
    return tuple(sorted(ks))


def _scan(
    scan_kind: str,
    parameters: tuple[tuple[str, Any], ...],
    pairs: Callable[[int], int],
    found: Iterable[list[Violation]],
) -> ScanReport:
    """Merge the lazy ``found``, violation lists in order of n, and count
    ``pairs(n)`` for every n up to the parameter ``n_max``, in closed form;
    ``wall_time_ms`` covers both.
    """
    start = time.perf_counter()
    violations = tuple(chain.from_iterable(found))
    pairs_checked = sum(map(pairs, range(1, dict(parameters)["n_max"] + 1)))
    return ScanReport(
        scan_kind=scan_kind,
        parameters=parameters,
        pairs_checked=pairs_checked,
        violations=violations,
        wall_time_ms=int((time.perf_counter() - start) * 1000),
        engine_version=__version__,
    )


# -- public scans ----------------------------------------------------------


def verify_lemma_inequalities(
    n_max: int,
    p_max: int,
    mode: str,
    *,
    workers: int = 1,
) -> ScanReport:
    """Scan the strict product inequalities over every qualifying pair.

    ``mode`` is ``"diff_length"`` (pairs of different lengths, shorter side
    expected strictly smaller) or ``"same_length"`` (distinct same-length
    pairs oriented at the first differing part).  Three forms are checked
    per pair: the unit-shift product ``prod(part + 1)``, the shifted ratio
    ``prod((part + p)/p)`` in cross-multiplied integer form, and the
    binomial product ``prod C(part + p, p)``.  Every failed strict
    comparison is recorded as a violation; the report is the evidence
    either way.  The ratios are compared through one integer key per
    parts tuple and p, ``prod(part + p) * p**(n - len)``, and their
    cross-multiplied values are built only for a violation.  At p = 1 the
    three forms have the same values, so they are compared once and a
    failure gives three violations, in form order.

    A scan that could record more than 10,000,000 violations, bounded by
    3 p_max per pair, is refused before any pair is made, with the bound
    and the limit in the message: at p_max = 6, diff_length above
    n_max = 20 and same_length above n_max = 25.  So is one whose buckets
    would hold more than 2,000,000 shift-product ints, 3 (p_max + 1) per
    partition of ``n_max``; a message whose largest n_max would be below 4
    says that p_max is too large.

    ``workers`` is checked (a plain int, at least 1) and has no effect; it
    stays only until ROADMAP item 4 drops the benchmark's ``probe_pool2``.
    """
    require_plain_ints(n_max=n_max, p_max=p_max, workers=workers)
    if mode not in ("diff_length", "same_length"):
        raise UsageError(f"mode must be diff_length or same_length, got {mode!r}")
    if n_max < 4:
        raise UsageError(f"n_max must be >= 4, got {n_max}")
    if p_max < 1:
        raise UsageError(f"p_max must be >= 1, got {p_max}")
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    pairs = _diff_length_pairs if mode == "diff_length" else _same_length_pairs
    scan = f"the lemma_{mode} scan at n_max = {n_max}, p_max = {p_max} would"
    too_large = f"p_max = {p_max} is too large for every n_max >= 4"
    _refuse_above(
        n_max,
        (3 * p_max * total for total in accumulate(map(pairs, count(1)))),
        _VIOLATION_LIMIT,
        "3 p_max pairs({})",
        f"{scan} record up to {{}} violations, pairs(n) its pairs up to n",
        least=4,
        too_large=too_large,
    )
    _refuse_above(
        n_max,
        (3 * (p_max + 1) * sum(_length_counts(n)) for n in count(1)),
        _HELD_LIMIT,
        "3 (p_max + 1) p({})",
        f"{scan} hold {{}} shift-product ints, p(n) the partitions of n",
        least=4,
        too_large=too_large,
    )
    return _scan(
        f"lemma_{mode}",
        (("n_max", n_max), ("p_max", p_max)),
        pairs,
        (_lemma_bucket(n, p_max, mode) for n in range(1, n_max + 1)),
    )


def verify_majorization(k_set: Iterable[int], n_max: int) -> ScanReport:
    """Assert coloured counts respect strict majorization for every k in k_set.

    The inequality is asserted on every strictly comparable same-length
    pair, and ``pairs_checked`` counts the distinct same-length pairs.  Each
    n is certified by ``c_k(m)² > c_k(m-1) c_k(m+1)`` for ``2 <= m <= n -
    2``, which makes every one-unit transfer raise the count; one pass per k
    up to ``n_max`` finds the largest certified n, and every smaller n is
    certified too (``_certified_upto`` gives the reasoning).  Only an n
    where it fails is compared pair by pair, so its violations are listed
    exactly as a pairwise scan lists them.

    The pair counts hold C(n_max + 2, 2) counts p(m, r), m <= n_max, so an
    ``n_max`` above 3,000 is refused before any work, with the count and
    the limit in the message.
    """
    require_plain_ints(n_max=n_max)
    k_tuple = _k_tuple(k_set)
    if min(k_tuple) < 3:
        raise UsageError(
            f"majorization monotonicity needs k >= 3, got {min(k_tuple)}"
        )
    if n_max < 1:
        raise UsageError(f"n_max must be >= 1, got {n_max}")
    _refuse_above(
        n_max,
        (comb(n + 2, 2) for n in count(1)),
        _COUNT_LIMIT,
        "C({} + 2, 2)",
        f"the majorization scan at n_max = {n_max} would hold {{}} partition counts p(m, r)",
    )
    certified = _certified_upto(k_tuple, n_max)
    return _scan(
        "majorization",
        (("k_set", k_tuple), ("n_max", n_max)),
        _same_length_pairs,
        (_majorization_pairs(n, k_tuple) for n in range(certified + 1, n_max + 1)),
    )


def scan_conjecture(k_set: Iterable[int], n_max: int) -> ScanReport:
    """Record coloured-count collisions on distinct same-length pairs.

    Purely exploratory: any k (including 1, 2, 3) is accepted and collisions
    are reported as findings with full witnesses, never raised.

    Only the partitions of ``n_max`` are walked, once per k: two partitions
    of n collide exactly when they do with u unit parts added to both
    (``c_k(1) = k``), so each smaller n's collisions are those of ``n_max``
    with u = n_max - n shared unit parts sliced off.  An ``n_max`` with
    more than 5,000,000 partitions (``n_max > 71``) is refused before any
    walk, with the count and the limit in the message.
    """
    require_plain_ints(n_max=n_max)
    k_tuple = _k_tuple(k_set)
    if n_max < 1:
        raise UsageError(f"n_max must be >= 1, got {n_max}")
    _refuse_a_long_walk(n_max)
    return _scan(
        "conjecture",
        (("k_set", k_tuple), ("n_max", n_max)),
        _same_length_pairs,
        _conjecture_buckets(k_tuple, n_max),
    )
