"""One fresh benchmark process: set up, run one job, check it, report JSON.

Usage (run.py starts it with PYTHONPATH pointing at the engine's sources):

    python3 perfbench/child.py --workload decide-sweep --seed 1 [--trace]
    python3 perfbench/child.py --setup-only
    python3 perfbench/child.py --probe pool2 --seed 1

The last line of standard output is one JSON object.  Only this process's
own modules are imported before the set-up timer starts, so ``setup_s`` is
the cost of ``import hilbprod`` plus ``load_catalog()`` on cold caches;
``setup_scaled_s`` is the same time rescaled by the host probes taken just
before and after it (see ``jobs.probe``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

import jobs
import tracing


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _layers(tracer: tracing.Tracer, counts: dict) -> dict:
    """Per-layer metrics of one traced job, named as in BENCHMARK.json."""
    out = {}
    for span in {name for _, name, _ in tracing.TRACE_POINTS}:
        out[f"{span}_s"] = tracer.total(span)
        out[f"{span}_calls"] = tracer.calls(span)
    out["decision.self_s"] = tracer.self_time("decision.decide")
    majorized = tracer.calls("partitions.majorizes")
    out["partitions.comparable_ratio"] = (
        tracer.counts.get("comparable", 0) / majorized if majorized else 0.0
    )
    out.update(counts)
    pairs = counts.get("scanner.pairs", 0)
    out["scanner.violations_per_pair"] = counts.get("scanner.violations", 0) / pairs if pairs else 0.0
    return out


def run_job(workload: str, seed: int, trace: bool, catalog, tmp: str) -> dict:
    job = jobs.WORKLOADS[workload](catalog, seed, tmp)
    tracer = tracing.Tracer()
    if trace:
        tracing.install_all(tracer)
    try:
        job.run()
    finally:
        tracer.uninstall()
    peak = _peak_rss_mb()
    failed = job.check()
    result = {
        "attempted": job.attempted(),
        "failed": failed,
        "errors": job.errors,
        "job_s": sum(x for x in job.latencies if x is not None),
        "latencies_s": job.latencies,
        "scaled_s": job.scaled_latencies(),
        "probe_s": statistics.median(job.probes),
        "peak_rss_mb": peak,
    }
    if trace:
        result["layers"] = _layers(tracer, job.counts)
        result["spans"] = tracer.stats
    return result


def probe_pool2(seed: int) -> dict:
    """Serial compare time over compare time with two workers, same report."""
    from hilbprod import scanner

    workers = min(2, os.cpu_count() or 1)
    times = {}
    prints = {}
    for count in (1, workers):
        start = perf_counter()
        report = scanner.verify_lemma_inequalities(
            jobs.LEMMA_N_MAX, jobs.LEMMA_P_MAX, "diff_length", workers=count
        )
        times[count] = perf_counter() - start
        prints[count] = report.fingerprint()
    same = prints[1] == prints[workers]
    return {
        "attempted": 1,
        "failed": 0 if same else 1,
        "errors": [] if same else ["pool fingerprint differs from the serial one"],
        "speedup": times[1] / times[workers],
        "workers": workers,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--probe", choices=("pool2",))
    args = parser.parse_args()

    probes = [jobs.probe() for _ in range(jobs.PROBE_WINDOW)]
    start = perf_counter()
    import hilbprod

    imported = perf_counter()
    catalog = hilbprod.load_catalog()
    loaded = perf_counter()
    probes += [jobs.probe() for _ in range(jobs.PROBE_WINDOW)]
    result = {
        "setup_s": loaded - start,
        "setup_scaled_s": (loaded - start) * jobs.NOMINAL_PROBE_S / statistics.median(probes),
        "import_s": imported - start,
        "load_catalog_s": loaded - imported,
        "version": hilbprod.__version__,
    }
    if args.probe == "pool2":
        result.update(probe_pool2(args.seed))
    elif not args.setup_only:
        os.makedirs(jobs.SCRATCH_DIR, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="child-", dir=jobs.SCRATCH_DIR)
        try:
            result.update(run_job(args.workload, args.seed, args.trace, catalog, tmp))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
