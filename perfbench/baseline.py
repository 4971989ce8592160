"""Measure the end-to-end baseline: ten untraced runs per workload, one seed
each, and the median and quartiles of every metric over those runs.

    python3 perfbench/baseline.py [--seeds 0-9] [--workloads a,b] [--output PATH]

Runs one benchmark process at a time.  The spread of a metric is
(q3 - q1) / median over the runs, the figure BENCHMARK.json's bounds are
judged against.  Writes perfbench/out/baseline.json unless --output says
otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import environment, worker_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--output", type=Path, default=HERE / "out" / "baseline.json")
    args = parser.parse_args()

    out = {"run_seconds": bench["run_seconds"], "seeds": args.seeds,
           "environment": environment(worker_env()), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  check=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if not last["correct"]:
                raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}")
            runs.append({k: v["value"] for k, v in last["metrics"].items()})
            print(workload, seed, runs[-1], flush=True)
        summary = {}
        for name in runs[0]:
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "values": values}
            print(f"  {name}: median {med:.6g} spread {(q3 - q1) / med:.4f}", flush=True)
        out["workloads"][workload] = summary
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
