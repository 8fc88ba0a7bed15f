"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 --seconds 20 [--workload lemma-scan ...]
                                [--out perfbench/baseline.json]

For every workload and end-to-end metric this prints the median of the runs
and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, which is
what the metric's bound in BENCHMARK.json is compared with.  Runs go one
after another, each with its own seed.  ``--out`` writes the runs, medians
and quartiles with the stamp of the first run: that file is the baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    results_file = Path(".perfbench_out") / f"{workload}-seed{seed}-trace0.json"
    result["stamp"] = json.loads(results_file.read_text())["stamp"]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=tuple(jobs.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out")
    args = parser.parse_args()

    summary = {}
    for workload in args.workload or jobs.WORKLOADS:
        runs = [
            run_once(workload, args.first_seed + i, args.seconds)
            for i in range(args.runs)
        ]
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / median,
                "values": values,
            }
            print(f"{workload:13s} {name:32s} median {median:14.6g}  "
                  f"spread {metrics[name]['spread']:.4f}", flush=True)
        summary[workload] = {
            "stamp": runs[0]["stamp"],
            "seeds": [r["stamp"]["seed"] for r in runs],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
