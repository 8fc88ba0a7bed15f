"""hilbprod benchmark: one workload, fresh processes, checked outputs.

    python3 perfbench/run.py --workload decide-sweep --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the engine is imported from
``src/`` (PYTHONPATH=src), so nothing needs to be installed.  Each job runs
in a fresh child process (``child.py``), one at a time, so caches start cold
as they do for a user's invocation and no more processes run than there are
CPUs.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs every workload once under the span tracer, plus the CLI
and worker-pool probes, and reports the per-layer metrics.  The last line of
standard output is one JSON object; a results file stamped with the commit,
engine version, CPU count, Python version and seed goes to ``.perfbench_out/``.
The exit code is 1 when any oracle rejects an output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import oracles  # noqa: E402

WORKLOADS = tuple(jobs.WORKLOADS)
SETUP_SAMPLES = 10
# each call's time is its median over the jobs of a run: at least three
MIN_JOBS = 3
# every child and CLI call must end before this many seconds into the run
RUN_BUDGET_S = 170
CLI_DECIDE = ("decide", "--surface", "abelian", "--a", "1,29", "--b", "2,28")

# end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "call_p75_ms": "ms",
    "call_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, workloads it is read from).  The named workload
# is used when it is listed; otherwise the first listed one.  None means the
# value does not come from a workload's traced job.
PER_LAYER = {
    "series.poincare_s": ("s", ("series-build", "decide-sweep")),
    "series.poincare_calls": ("count", ("series-build", "decide-sweep")),
    "series.colored_table_s": ("s", ("series-build", "colour-scan")),
    "series.hodge_p0_s": ("s", ("series-build",)),
    "series.hodge_full_s": ("s", ("series-build",)),
    "series.terms": ("count", ("series-build",)),
    "invariants.poincare_tuple_s": ("s", ("decide-sweep",)),
    "invariants.poincare_tuple_calls": ("count", ("decide-sweep",)),
    "invariants.euler_tuple_s": ("s", ("decide-sweep",)),
    "invariants.euler_tuple_calls": ("count", ("decide-sweep",)),
    "decision.decide_s": ("s", ("decide-sweep",)),
    "decision.self_s": ("s", ("decide-sweep",)),
    "decision.tier_euler": ("count", ("decide-sweep",)),
    "decision.tier_betti": ("count", ("decide-sweep",)),
    "decision.tier_hodge": ("count", ("decide-sweep",)),
    "decision.tier_structural": ("count", ("decide-sweep",)),
    "decision.tier_unknown": ("count", ("decide-sweep",)),
    "partitions.enumerate_s": ("s", ("lemma-scan", "colour-scan")),
    "partitions.enumerate_calls": ("count", ("lemma-scan", "colour-scan")),
    "partitions.colored_tuple_s": ("s", ("colour-scan",)),
    "partitions.colored_tuple_calls": ("count", ("colour-scan",)),
    "partitions.majorizes_s": ("s", ("colour-scan",)),
    "partitions.majorizes_calls": ("count", ("colour-scan",)),
    "partitions.comparable_ratio": ("ratio", ("colour-scan",)),
    "scanner.compare_s": ("s", ("lemma-scan", "colour-scan")),
    "scanner.export_s": ("s", ("lemma-scan",)),
    "scanner.export_bytes": ("bytes", ("lemma-scan",)),
    "scanner.pairs": ("count", ("lemma-scan",)),
    "scanner.violations": ("count", ("lemma-scan",)),
    "scanner.violations_per_pair": ("ratio", ("lemma-scan",)),
    "scanner.largest_bucket_share": ("ratio", None),
    "scanner.pool2_speedup": ("ratio", None),
    "surfaces.import_s": ("s", None),
    "surfaces.load_catalog_s": ("s", None),
    "cli.import_s": ("s", None),
    "cli.decide_s": ("s", None),
    "cli.scan_emit_s": ("s", None),
    "trace_overhead": ("s", None),
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.tmp = root / jobs.SCRATCH_DIR
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        # the warm-up child writes the bytecode cache, so that every set-up
        # sample reads it, as any invocation after the first does
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.children: list[dict] = []
        self.deadline = perf_counter() + RUN_BUDGET_S

    def _run(self, cmd: list[str]) -> tuple[subprocess.CompletedProcess, float]:
        """Run one process to completion; it is killed if the run's budget runs out."""
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                              timeout=max(1.0, self.deadline - start))
        return proc, perf_counter() - start

    def child(self, *args: str) -> dict:
        """Run child.py to completion and return its JSON report."""
        cmd = [sys.executable, str(HERE / "child.py"), "--seed", str(self.seed), *args]
        proc, wall = self._run(cmd)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"child {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
        report = json.loads(lines[-1])
        report["wall_s"] = wall
        self.children.append(report)
        return report

    def setup_samples(self) -> list[float]:
        self.child("--setup-only")  # warm-up: compiles the bytecode, not a sample
        return [self.child("--setup-only")["setup_scaled_s"] for _ in range(SETUP_SAMPLES)]

    def cli(self, *argv: str) -> tuple[subprocess.CompletedProcess, float]:
        return self._run([sys.executable, "-m", "hilbprod.cli", *argv])

    def attempted(self) -> int:
        return sum(c.get("attempted", 0) for c in self.children)

    def failed(self) -> int:
        return sum(c.get("failed", 0) for c in self.children)

    def errors(self) -> list[str]:
        return [e for c in self.children for e in c.get("errors", [])]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with q% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def busy_s(job: dict) -> float:
    """Rescaled time a job spent in its calls."""
    return sum(x for x in job["scaled_s"] if x is not None)


def end_to_end(runner: Runner, workload: str, seconds: float) -> dict:
    start = perf_counter()
    setups = runner.setup_samples()
    jobs_run: list[dict] = []
    while True:
        jobs_run.append(runner.child("--workload", workload))
        spent = perf_counter() - start
        next_end = spent + statistics.median(j["wall_s"] for j in jobs_run)
        if len(jobs_run) >= MIN_JOBS and next_end > seconds:
            break
    # Call times rescaled to the nominal host speed (see jobs.probe); each
    # call's median over the jobs of the run, since every job of a run makes
    # the same calls in the same order.
    scaled = [j["scaled_s"] for j in jobs_run]
    per_call = [
        statistics.median(values)
        for values in ([x for x in column if x is not None] for column in zip(*scaled))
        if values
    ]
    return {
        "setup_s": statistics.median(setups + [j["setup_scaled_s"] for j in jobs_run]),
        "ops_per_s": sum(j["attempted"] for j in jobs_run) / sum(map(busy_s, jobs_run)),
        "call_p75_ms": 1000 * percentile(per_call, 75),
        "call_p99_ms": 1000 * percentile(per_call, 99),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs_run),
    }


def cli_probes(runner: Runner) -> dict:
    """CLI as a subprocess: start-up, one decide at n = 30, structured scan output."""
    runner.tmp.mkdir(exist_ok=True)
    errors = []
    attempted = 0

    def run(*argv):
        nonlocal attempted
        attempted += 1
        proc, elapsed = runner.cli(*argv)
        if proc.returncode != 0:
            errors.append(f"hilbprod.cli {' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
        return proc, elapsed

    import_s = statistics.median(run("--version")[1] for _ in range(3))
    proc, decide_s = run(*CLI_DECIDE, "--output-format", "structured")
    if proc.returncode == 0:
        verdict = json.loads(proc.stdout)
        w = verdict["witness"]
        if verdict["outcome"] != "non_isomorphic" or not w or w["value_a"] == w["value_b"]:
            errors.append(f"cli decide gave {verdict['outcome']} with witness {w}")
    scan = ("scan", "--kind", "lemma-diff-length", "--n-max", str(jobs.LEMMA_N_MAX),
            "--p-max", str(jobs.LEMMA_P_MAX))
    structured = runner.tmp / f"cli-{os.getpid()}.json"
    human = runner.tmp / f"cli-{os.getpid()}.txt"
    try:
        proc, structured_s = run(*scan, "--output-format", "structured", "--output", str(structured))
        if proc.returncode == 0:
            report = json.loads(structured.read_text())
            pinned = oracles.LEMMA_VIOLATIONS[("diff_length", jobs.LEMMA_N_MAX, jobs.LEMMA_P_MAX)]
            pairs = sum(oracles.scan_pairs("diff_length", jobs.LEMMA_N_MAX))
            if report["pairs_checked"] != pairs or len(report["violations"]) != pinned:
                errors.append("cli structured scan report disagrees with the oracle")
        human_s = run(*scan, "--output", str(human))[1]
    finally:
        structured.unlink(missing_ok=True)
        human.unlink(missing_ok=True)
    runner.children.append({"attempted": attempted, "failed": len(errors), "errors": errors})
    return {
        "cli.import_s": import_s,
        "cli.decide_s": decide_s,
        "cli.scan_emit_s": structured_s - human_s,
    }


def per_layer(runner: Runner, workload: str) -> dict:
    runner.setup_samples()  # feeds the surfaces.* medians below
    traced = {w: runner.child("--workload", w, "--trace") for w in WORKLOADS if w != workload}
    # the named workload's traced and untraced jobs run back to back, so
    # that both see the same host speed
    traced[workload] = runner.child("--workload", workload, "--trace")
    untraced = runner.child("--workload", workload)
    pool = runner.child("--probe", "pool2")
    bucket_pairs = oracles.scan_pairs("diff_length", jobs.LEMMA_N_MAX)
    extra = {
        "scanner.largest_bucket_share": max(bucket_pairs) / sum(bucket_pairs),
        "scanner.pool2_speedup": pool["speedup"],
        "surfaces.import_s": statistics.median(c["import_s"] for c in runner.children),
        "surfaces.load_catalog_s": statistics.median(c["load_catalog_s"] for c in runner.children),
        "trace_overhead": busy_s(traced[workload]) - busy_s(untraced),
    }
    extra.update(cli_probes(runner))
    metrics = {}
    for name, (unit, sources) in PER_LAYER.items():
        if sources is None:
            value = extra[name]
        else:
            source = workload if workload in sources else sources[0]
            value = traced[source]["layers"][name]
        metrics[name] = value
    return metrics


def git_sha(root: Path) -> str | None:
    # the ceiling keeps git from looking for a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "hilbprod" / "__init__.py").is_file():
        print(f"error: no engine sources at {root / 'src' / 'hilbprod'}; "
              "run from the root of a hilbprod checkout", file=sys.stderr)
        return 2
    runner = Runner(root, args.seed)
    try:
        if args.trace:
            values = per_layer(runner, args.workload)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            values = end_to_end(runner, args.workload, args.seconds)
            units = END_TO_END
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed = runner.attempted(), runner.failed()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    stamp = {
        "git_sha": git_sha(root),
        "hilbprod_version": runner.children[0]["version"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw_keys = ("setup_s", "setup_scaled_s", "job_s", "probe_s", "wall_s", "attempted", "failed",
                "peak_rss_mb", "spans")
    children = [{k: c[k] for k in raw_keys if k in c} for c in runner.children]
    out_file.write_text(
        json.dumps({"stamp": stamp, "result": result, "children": children}, indent=1) + "\n"
    )

    for error in runner.errors():
        print(f"oracle: {error}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"children={len(runner.children)} results={out_file.relative_to(root)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'error_rate':34s} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
