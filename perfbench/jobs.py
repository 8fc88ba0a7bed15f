"""The four workloads: a fixed job each, timed per call, then checked.

Each workload is a class built from the catalog, the seed and a scratch
directory.  ``run`` is the timed part and is the only part the tracer sees;
``check`` compares every output with an oracle from ``oracles`` and returns
how many operations failed.  Engine functions are always looked up through
their module at call time, so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import random
import statistics
from time import perf_counter

import oracles

SERIES_TRUNCATION = 24
COLORED_N = 250
COLORED_KS = (-4, 12, 24, 55)
HODGE_P0_N = 200
HODGE_FULL_N = 8
DECIDE_SURFACES = ("abelian", "bielliptic", "enriques", "k3")
DECIDE_N = range(2, 13)
LEMMA_N_MAX = 16
LEMMA_P_MAX = 6
COLOUR_N_MAX = 22
MAJORIZATION_KS = (3, 4, 5)
CONJECTURE_KS = (4, 5)
# exports and CLI output go here, relative to the checkout root
SCRATCH_DIR = ".perfbench_tmp"


# Host speed drifts by 10-25 % over seconds to minutes on a shared machine.
# Each job therefore times a fixed pure-Python probe between its calls, in
# proportion to the time spent in calls, and rescales each call's time by
# the probes nearest to it, to a host on which one probe takes
# NOMINAL_PROBE_S.
PROBE_ITERATIONS = 20_000
NOMINAL_PROBE_S = 0.005
PROBE_EVERY_S = 0.1
MAX_PROBES_AT_ONCE = 8
PROBE_WINDOW = 3  # probes on each side of a call that rescale it


def probe() -> float:
    """Seconds for a fixed mix of tuple-keyed dict stores and big-int products.

    That is the engine's own kind of work, so the probe slows down with the
    host as the engine does.  The collector is paused so that the size of
    the engine's heap does not change the probe's cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table = {}
        x = 3**100
        for i in range(PROBE_ITERATIONS):
            table[(i & 255, i & 7)] = x * i
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


FAILED = object()


class Workload:
    """Shared bookkeeping: timed calls, host probes, errors and layer counts."""

    def __init__(self) -> None:
        self.latencies: list[float | None] = []
        self.probes: list[float] = []
        self.probe_at: list[int] = []  # len(self.probes) when each call started
        self.errors: list[str] = []
        self.counts: dict[str, float] = {}
        self._since_probe = 0.0

    def fail(self, message: str) -> None:
        """Keep the message of a failed operation (the first 20 of a job)."""
        if len(self.errors) < 20:
            self.errors.append(message)

    def calibrate(self, force: bool = False) -> None:
        """Probe the host once per PROBE_EVERY_S of call time (PROBE_WINDOW times if forced)."""
        due = int(self._since_probe / PROBE_EVERY_S)
        if force:
            due = max(due, PROBE_WINDOW)
        for _ in range(min(due, MAX_PROBES_AT_ONCE)):
            self.probes.append(probe())
        if due:
            self._since_probe = 0.0

    def call(self, label, fn):
        """Time one public call; one that raises is a failed operation (latency None)."""
        self.probe_at.append(len(self.probes))
        start = perf_counter()
        try:
            out = fn()
        except Exception as exc:
            self.fail(f"{label}: {exc!r}")
            self.latencies.append(None)
            return FAILED
        elapsed = perf_counter() - start
        self.latencies.append(elapsed)
        self._since_probe += elapsed
        self.calibrate()
        return out

    def scaled_latencies(self) -> list[float | None]:
        """Each call's time at the nominal host speed, from the probes around it."""
        out = []
        for latency, at in zip(self.latencies, self.probe_at):
            if latency is not None:
                window = self.probes[max(0, at - PROBE_WINDOW):at + PROBE_WINDOW]
                latency *= NOMINAL_PROBE_S / statistics.median(window)
            out.append(latency)
        return out


class SeriesBuild(Workload):
    """Cold generating-series builds at large truncation, in seeded order."""

    def __init__(self, catalog, seed: int, tmp: str) -> None:
        super().__init__()
        from hilbprod import invariants, partitions

        self.surfaces = {
            name: catalog.lookup(name, params)
            for name, params in (
                ("abelian", None), ("bielliptic", None), ("k3", None),
                ("quintic", None), ("ruled", {"g": 2}),
            )
        }
        diamond = invariants.surface_diamond(self.surfaces["abelian"])
        builds = [
            (("poincare", name), lambda s=s: invariants.poincare_series(s, SERIES_TRUNCATION))
            for name, s in self.surfaces.items()
        ]
        builds += [
            (("colored", k), lambda k=k: partitions.colored_count(k, COLORED_N))
            for k in COLORED_KS
        ]
        builds.append((("hodge_p0",), lambda: invariants.hodge_p0_series(2, 1, HODGE_P0_N)))
        builds.append(
            (("hodge_full",), lambda: invariants.hodge_polynomial_full(diamond, HODGE_FULL_N))
        )
        random.Random(seed).shuffle(builds)
        self.builds = builds
        self.outputs: dict[tuple, object] = {}

    def run(self) -> None:
        self.calibrate(force=True)
        for key, build in self.builds:
            out = self.call(key, build)
            if out is not FAILED:
                self.outputs[key] = out
        self.calibrate(force=True)
        # report latencies in a seed-independent order, so that run.py can
        # take the median of each build over the jobs of a run
        order = sorted(range(len(self.builds)), key=lambda i: str(self.builds[i][0]))
        self.latencies = [self.latencies[i] for i in order]
        self.probe_at = [self.probe_at[i] for i in order]

    def attempted(self) -> int:
        return len(self.builds)

    def check(self) -> int:
        failed = len(self.builds) - len(self.outputs)
        tables: dict[int, list[int]] = {}

        def table(k: int) -> list[int]:
            if k not in tables:
                tables[k] = oracles.colored_table(k, COLORED_N)
            return tables[k]

        terms = 0
        for key, out in self.outputs.items():
            check = getattr(self, f"_check_{key[0]}")
            problem = check(key, out, table)
            if problem:
                failed += 1
                self.fail(f"{key}: {problem}")
            if isinstance(out, int):
                terms += 1
            elif key[0] == "hodge_full":
                terms += len(out.entries())
            else:
                terms += len(out)
        self.counts["series.terms"] = terms
        return failed

    def _check_poincare(self, key, series, table):
        from hilbprod import invariants, partitions

        s = self.surfaces[key[1]]
        rows: dict[int, dict[int, int]] = {}
        for exp, coeff in series.terms():
            rows.setdefault(exp.t_deg, {})[exp.aux_degs[0]] = coeff
        for n in range(1, SERIES_TRUNCATION + 1):
            row = rows.get(n, {})
            for k in (0, 1, 2):
                closed = invariants.betti_closed(s, n, k)
                if closed is not None and row.get(k, 0) != closed:
                    return f"b_{k} at n={n}: series {row.get(k, 0)}, closed form {closed}"
            euler = sum((-1) ** k * c for k, c in row.items())
            if euler != partitions.colored_count(s.chi, n) or euler != table(s.chi)[n]:
                return f"z=-1 at n={n}: {euler} is not the chi-coloured count"
        return None

    def _check_colored(self, key, value, table):
        from hilbprod import partitions

        k = key[1]
        expected = table(k)
        if value != expected[COLORED_N]:
            return f"colored_count({k}, {COLORED_N}) = {value}, oracle {expected[COLORED_N]}"
        for n in range(COLORED_N):
            if partitions.colored_count(k, n) != expected[n]:
                return f"colored_count({k}, {n}) disagrees with the oracle"
        return None

    def _check_hodge_p0(self, key, series, table):
        got = {(e.t_deg, e.aux_degs[0]): c for e, c in series.terms()}
        expected = {}
        for n in range(HODGE_P0_N + 1):
            for p in range(2 * n + 1):
                value = oracles.hodge_p0(2, 1, n, p)
                if value:
                    expected[(n, p)] = value
        return None if got == expected else "h^(p,0) series differs from the closed form"

    def _check_hodge_full(self, key, diamond, table):
        from hilbprod.series import Exponent
        from hilbprod import invariants

        n = HODGE_FULL_N
        poincare = invariants.poincare_series(self.surfaces["abelian"], n)
        for i in range(4 * n + 1):
            if diamond.betti(i) != poincare.coeff(Exponent(n, (i,))):
                return f"Betti sum of the diamond at degree {i} differs from the Poincare series"
        for p in range(2 * n + 1):
            if diamond.h(p, 0) != oracles.hodge_p0(2, 1, n, p):
                return f"h^({p},0) of the diamond differs from the closed form"
        return None


class DecideSweep(Workload):
    """decide on every unordered pair of distinct partitions, shuffled."""

    def __init__(self, catalog, seed: int, tmp: str) -> None:
        super().__init__()
        from hilbprod import partitions

        self.surfaces = [catalog.lookup(name) for name in DECIDE_SURFACES]
        pairs = []
        for s in self.surfaces:
            for n in DECIDE_N:
                for a, b in itertools.combinations(partitions.enumerate_partitions(n), 2):
                    pairs.append((s, a, b))
        random.Random(seed).shuffle(pairs)
        self.pairs = pairs
        self.verdicts: list = []

    def run(self) -> None:
        from hilbprod import decision

        self.calibrate(force=True)
        for s, a, b in self.pairs:
            verdict = self.call(("decide", s.name, a, b), lambda: decision.decide(s, a, b))
            self.verdicts.append(None if verdict is FAILED else verdict)
        self.calibrate(force=True)

    def attempted(self) -> int:
        return len(self.pairs)

    def check(self) -> int:
        from hilbprod import invariants
        from hilbprod.decision import Outcome, Witness

        expected_pairs = len(DECIDE_SURFACES) * sum(
            sum(oracles.pair_counts(n)) for n in DECIDE_N
        )
        if len(self.pairs) != expected_pairs:
            self.fail(f"{len(self.pairs)} pairs generated, closed form {expected_pairs}")
            return len(self.pairs)

        tables = {s.chi: oracles.colored_table(s.chi, max(DECIDE_N)) for s in self.surfaces}
        memo: dict = {}

        def data(s, p):
            key = (s.name, p.parts)
            if key not in memo:
                euler = invariants.euler_char_tuple(s, p)
                betti = invariants.poincare_polynomial_tuple(s, p).coefficients
                hodge = invariants.hodge_p0_tuple_vector(s, p)
                expected_euler = 1
                expected_hodge = [1]
                for part in p.parts:
                    expected_euler *= tables[s.chi][part]
                    expected_hodge = _convolve(
                        expected_hodge,
                        [oracles.hodge_p0(s.h10, s.h20, part, q) for q in range(2 * part + 1)],
                    )
                signed = sum((-1) ** i * c for i, c in enumerate(betti))
                ok = euler == expected_euler == signed and hodge == expected_hodge
                memo[key] = (euler, betti, hodge, ok)
            return memo[key]

        tiers = dict.fromkeys(("euler", "betti", "hodge", "structural", "unknown"), 0)
        tier_of = {"euler_characteristic": "euler", "betti": "betti", "hodge_p0": "hodge"}
        failed = 0
        lines = []
        for (s, a, b), verdict in zip(self.pairs, self.verdicts):
            if verdict is None:
                failed += 1
                continue
            w = verdict.witness
            lines.append(oracles.decide_line(s.name, a.parts, b.parts, verdict.outcome.value, w))
            if verdict.outcome is Outcome.UNKNOWN:
                tiers["unknown"] += 1
            elif w is None:
                tiers["structural"] += 1
            else:
                tiers[tier_of[w.invariant]] += 1
            if s.structural_class.value == "k3":
                rules = {r.rule_id for r in verdict.rules_fired}
                good = (
                    verdict.outcome is Outcome.NON_ISOMORPHIC
                    and w is None
                    and "k3-product-rigidity" in rules
                )
            else:
                ea, ba, ha, ok_a = data(s, a)
                eb, bb, hb, ok_b = data(s, b)
                expected = None
                if ea != eb:
                    expected = Witness("euler_characteristic", None, ea, eb)
                else:
                    for name, u, v in (("betti", ba, bb), ("hodge_p0", ha, hb)):
                        diff = next((i for i, (x, y) in enumerate(zip(u, v)) if x != y), None)
                        if diff is not None:
                            expected = Witness(name, diff, u[diff], v[diff])
                            break
                outcome = Outcome.UNKNOWN if expected is None else Outcome.NON_ISOMORPHIC
                good = ok_a and ok_b and w == expected and verdict.outcome is outcome
            if not good:
                failed += 1
                self.fail(f"decide({s.name}, {a}, {b}) gave {verdict.outcome.value}, {w}")
        for tier, count in tiers.items():
            self.counts[f"decision.tier_{tier}"] = count
        digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
        if digest != oracles.DECIDE_DIGEST:
            self.fail(f"decide stream digest {digest} differs from the pinned one")
            return len(self.pairs)
        return failed


def _convolve(u: list[int], v: list[int]) -> list[int]:
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] += x * y
    return out


class LemmaScan(Workload):
    """Both lemma scans, each exported as CSV, JSON Lines and fingerprint."""

    MODES = ("diff_length", "same_length")

    def __init__(self, catalog, seed: int, tmp: str) -> None:
        super().__init__()
        self.tmp = tmp
        self.reports: dict[str, tuple] = {}

    def run(self) -> None:
        from hilbprod import scanner

        def scan_and_export(mode, csv_path, records_path):
            report = scanner.verify_lemma_inequalities(LEMMA_N_MAX, LEMMA_P_MAX, mode)
            report.write_csv(csv_path)
            report.write_records(records_path)
            return report, csv_path, records_path, report.fingerprint()

        self.calibrate(force=True)
        for mode in self.MODES:
            csv_path = os.path.join(self.tmp, f"{mode}.csv")
            records_path = os.path.join(self.tmp, f"{mode}.jsonl")
            out = self.call(f"lemma {mode}", lambda: scan_and_export(mode, csv_path, records_path))
            if out is not FAILED:
                self.reports[mode] = out
        self.calibrate(force=True)

    def attempted(self) -> int:
        return sum(sum(oracles.scan_pairs(mode, LEMMA_N_MAX)) for mode in self.MODES)

    def check(self) -> int:
        failed = 0
        pairs = violations = exported = 0
        for mode in self.MODES:
            expected_pairs = sum(oracles.scan_pairs(mode, LEMMA_N_MAX))
            if mode not in self.reports:
                failed += expected_pairs
                continue
            report, csv_path, records_path, fingerprint = self.reports[mode]
            problem = self._problem(mode, report, csv_path, records_path, fingerprint)
            if problem:
                failed += expected_pairs
                self.fail(f"lemma {mode}: {problem}")
            pairs += report.pairs_checked
            violations += len(report.violations)
            exported += os.path.getsize(csv_path) + os.path.getsize(records_path)
            exported += len(fingerprint.encode())
        self.counts.update({
            "scanner.pairs": pairs,
            "scanner.violations": violations,
            "scanner.export_bytes": exported,
        })
        return failed

    @staticmethod
    def _problem(mode, report, csv_path, records_path, fingerprint):
        expected_pairs = sum(oracles.scan_pairs(mode, LEMMA_N_MAX))
        if report.pairs_checked != expected_pairs:
            return f"pairs_checked {report.pairs_checked}, closed form {expected_pairs}"
        pinned = oracles.LEMMA_VIOLATIONS[(mode, LEMMA_N_MAX, LEMMA_P_MAX)]
        if len(report.violations) != pinned:
            return f"{len(report.violations)} violations, pinned {pinned}"
        seen = set()
        for v in report.violations:
            key = (v.a, v.b, v.k_or_p, v.form)
            lengths_ok = len(v.a) < len(v.b) if mode == "diff_length" else len(v.a) == len(v.b)
            values = oracles.lemma_values(v.a, v.b, v.k_or_p, v.form)
            if (
                key in seen
                or not lengths_ok
                or sum(v.a) != v.n
                or sum(v.b) != v.n
                or values != (v.value_a, v.value_b)
                or values[0] < values[1]
            ):
                return f"violation {v} is not a true violation"
            seen.add(key)
        lines = len(report.violations) + 1
        with open(csv_path) as handle:
            if sum(1 for _ in handle) != lines:
                return "CSV row count differs from the violation count"
        with open(records_path) as handle:
            header = json.loads(handle.readline())
            if header.get("record") != "header" or header.get("pairs_checked") != expected_pairs:
                return "records header is wrong"
            if 1 + sum(1 for _ in handle) != lines:
                return "record count differs from the violation count"
        content = json.loads(fingerprint)
        if content["pairs_checked"] != expected_pairs or len(content["violations"]) != pinned:
            return "fingerprint content differs from the report"
        return None


class ColourScan(Workload):
    """Majorization and conjecture scans: same dispatch, no records."""

    def __init__(self, catalog, seed: int, tmp: str) -> None:
        super().__init__()
        self.reports: list = []

    def run(self) -> None:
        from hilbprod import scanner

        scans = (
            ("majorization", lambda: scanner.verify_majorization(set(MAJORIZATION_KS), COLOUR_N_MAX)),
            ("conjecture", lambda: scanner.scan_conjecture(set(CONJECTURE_KS), COLOUR_N_MAX)),
        )
        self.calibrate(force=True)
        for name, scan in scans:
            report = self.call(name, scan)
            if report is not FAILED:
                self.reports.append(report)
        self.calibrate(force=True)

    def attempted(self) -> int:
        return 2 * sum(oracles.scan_pairs("same_length", COLOUR_N_MAX))

    def check(self) -> int:
        per_scan = sum(oracles.scan_pairs("same_length", COLOUR_N_MAX))
        failed = per_scan * (2 - len(self.reports))
        for report in self.reports:
            if report.pairs_checked != per_scan or report.violations:
                failed += per_scan
                self.fail(
                    f"{report.scan_kind}: {report.pairs_checked} pairs "
                    f"(closed form {per_scan}), {len(report.violations)} violations"
                )
        self.counts["scanner.pairs"] = sum(r.pairs_checked for r in self.reports)
        self.counts["scanner.violations"] = sum(len(r.violations) for r in self.reports)
        return failed


WORKLOADS = {
    "series-build": SeriesBuild,
    "decide-sweep": DecideSweep,
    "lemma-scan": LemmaScan,
    "colour-scan": ColourScan,
}
