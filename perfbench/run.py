"""phessian benchmark: seeded CLI workloads, checked reports, per-layer traces.

    python3 perfbench/run.py --workload NAME [--seed N | --holdout]
                             [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each round of a workload runs its CLI
invocations (see workloads.py) one after another in one fresh worker
process, then checks every report.  Round k draws its inputs from (seed, k),
so every run with one seed sees the same sequence of inputs.  Rounds repeat
until the next one would overrun --seconds, with at least MIN_ROUNDS of
them; every metric is the median over rounds.

--trace 0 reports the end-to-end metrics: wall_s (cli.main time summed over
a round), cpu_s (user+sys of those calls, all threads), peak_rss_mb (of the
round's worker) and setup_s (worker start until scipy and phessian.cli are
imported, over every untraced worker of the run).  --trace 1 alternates
untraced and traced rounds and reports the per-layer metrics of the traced
rounds plus trace.overhead_frac.  Count metrics must repeat exactly for
the same round of runs with the same seed; any that do not are flagged.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; attempted counts CLI invocations, failed those with a nonzero
exit, an exception or a failed check.  Lines before it give quartiles,
sample counts and the environment, and perfbench/out/ keeps the full
result and the spans of the last traced round.

Seeds: --seed picks every input.  Seeds 0-99 are for development;
--holdout runs HOLDOUT_SEED, kept for re-checking a claim on a seed that
was not used while the change was written.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
DEFAULT_SEED = 1
HOLDOUT_SEED = 271828
MIN_ROUNDS = 3
SETUP_ONLY_WORKERS = 3  # extra import-only workers, so setup_s has samples
RUN_LIMIT_S = 170.0  # a run never outlasts this, whatever --seconds says
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def nproc():
    return len(os.sched_getaffinity(0))


def worker_env():
    """Environment for workers: BLAS pools capped at nproc threads."""
    env = dict(os.environ)
    for key in BLAS_ENV:
        try:
            threads = min(int(env.get(key, nproc())), nproc())
        except ValueError:
            threads = nproc()
        env[key] = str(max(threads, 1))
    return env


def last_level_cache():
    """Size of cpu0's highest cache level, as sysfs states it."""
    best = (0, None)
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            best = max(best, (int((idx / "level").read_text()),
                              (idx / "size").read_text().strip()))
        except (OSError, ValueError):
            continue
    return best[1]


def environment(env):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: env[k] for k in BLAS_ENV},
        "last_level_cache": last_level_cache(),
        "machine": platform.machine(),
    }


class Runner:
    """Spawns workers one at a time and keeps every sample of a run."""

    def __init__(self, workload, seed, scratch, deadline):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.deadline = deadline
        self.env = worker_env()
        self.attempted = 0
        self.failures = []
        self.setup = []
        self.checks = {}  # check name -> values, e.g. solution_error

    def spawn(self, argvs, trace=False, run_id="setup"):
        """Run one worker over `argvs`, wait for it and return its result
        dict, or {"error": ...} if it did not produce one."""
        result_path = self.scratch / "result.json"
        result_path.unlink(missing_ok=True)
        # the spans of a run's last traced round are kept
        spans = OUT / f"spans-{self.workload}.npz"
        cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
               repr(time.monotonic()), str(result_path), "1" if trace else "0",
               str(spans), run_id, json.dumps(argvs)]
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=timeout,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s"}
        if proc.returncode != 0 or not result_path.exists():
            return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        with open(result_path) as fh:
            return json.load(fh)

    def check(self, call, outcome, report_path):
        """Failure message for one invocation, or None if its report holds."""
        failure = outcome.get("exception")
        if failure is None:
            try:
                with open(report_path) as fh:
                    report = json.load(fh)
                failure, extras = call.check(outcome["exit"], report)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                failure, extras = f"{call.argv[0]}: unreadable report ({exc!r})", {}
            for key, value in extras.items():
                self.checks.setdefault(key, []).append(value)
        return failure

    def run_round(self, calls, trace, index):
        """One round in one worker; returns its sums, or None on any failure."""
        reports = [self.scratch / f"report-{k}.json" for k in range(len(calls))]
        for path in reports:
            path.unlink(missing_ok=True)
        self.attempted += len(calls)
        res = self.spawn([c.argv + ["--output", str(p)] for c, p in zip(calls, reports)],
                         trace, f"{self.workload}-seed{self.seed}-round{index}")
        outcomes = res.get("calls", [])
        failures = [self.check(c, o, p) for c, o, p in zip(calls, outcomes, reports)]
        failures += [res.get("error", "worker stopped early")] * (len(calls) - len(outcomes))
        failures = [f for f in failures if f]
        self.failures += failures
        if failures:
            return None
        if not trace:
            self.setup.append(res["setup_s"])
        return {"wall_s": sum(o["wall_s"] for o in outcomes),
                "cpu_s": sum(o["cpu_s"] for o in outcomes),
                "peak_rss_mb": res["peak_rss_mb"],
                "layers": res.get("layers")}


def round_seed(seed, index):
    """Input seed of round `index`, so a run's medians average over several
    inputs while staying a function of the run's seed."""
    return int(np.random.default_rng([seed, index]).integers(2**31))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def layer_metrics(s):
    """Per-layer metrics of one traced round from its tracer summary."""
    calls, rows, self_s = s["calls"], s["rows"], s["self_s"]
    nbytes, out = s["bytes"], s["out"]
    nested_calls, nested_rows = s["nested_calls"], s["nested_rows"]

    def ratio(a, b):
        return a / b if b else 0.0

    iters = out["solver.newton_solve"]
    matvecs = nested_calls["solver.periodic_hess@solver.lgmres"]
    klc = calls["subsolution.key_lemma_check"]
    candidates = nested_rows["cone.classify_batch@concavity.sample_hypothesis_points"]
    stencils = ("solver.periodic_grad", "solver.periodic_hess")
    m = {
        "solver.newton.iterations": (iters, "count"),
        "solver.newton_solve.self_s": (self_s["solver.newton_solve"], "s"),
        "solver.linearize.calls": (calls["solver.linearize"], "count"),
        # each solve linearizes once up front and once per accepted step
        "solver.linesearch.backtracks": (
            calls["solver.linearize"] - calls["solver.newton_solve"] - iters, "count"),
        "solver.krylov.solves": (calls["solver.lgmres"], "count"),
        "solver.matvec.calls": (matvecs, "count"),
        "solver.matvec.per_newton": (ratio(matvecs, iters), "count"),
        "solver.krylov.self_s": (self_s["solver.lgmres"], "s"),
        "solver.linearize.self_s": (self_s["solver.linearize"], "s"),
        "solver.stencil.calls": (sum(calls[k] for k in stencils), "count"),
        "solver.stencil.self_s": (sum(self_s[k] for k in stencils), "s"),
        "solver.stencil.bytes_computed": (sum(nbytes[k] for k in stencils), "B"),
        "spectral.jacobi_eigh.calls": (calls["spectral.jacobi_eigh"], "count"),
        "spectral.jacobi_eigh.matrices": (rows["spectral.jacobi_eigh"], "count"),
        "spectral.jacobi_eigh.self_s": (self_s["spectral.jacobi_eigh"], "s"),
        "spectral.jacobi_eigh.bytes_computed": (nbytes["spectral.jacobi_eigh"], "B"),
        "subsolution.construct.self_s": (self_s["subsolution.construct"], "s"),
        "subsolution.key_lemma_check.calls": (klc, "count"),
        "subsolution.key_lemma_check.self_s": (self_s["subsolution.key_lemma_check"], "s"),
        "subsolution.key_lemma.classify_per_config": (ratio(
            nested_calls["cone.classify_batch@subsolution.key_lemma_check"], klc), "count"),
        "subsolution.key_lemma.verified_frac": (
            ratio(out["subsolution.key_lemma_check"], klc), "ratio"),
        "concavity.sample_hypothesis_points.self_s": (
            self_s["concavity.sample_hypothesis_points"], "s"),
        "concavity.sampler.candidates": (candidates, "count"),
        "concavity.sampler.accept_frac": (
            ratio(out["concavity.sample_hypothesis_points"], candidates), "ratio"),
        "concavity.residual_batch.self_s": (self_s["concavity.residual_batch"], "s"),
        "cone.classify_batch.rows": (rows["cone.classify_batch"], "count"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
    }
    for fn in ("cone.classify_batch", "cone.classify", "cone.cone_distance",
               "cone.sample_admissible", "cone.maclaurin_report",
               "cone.tech_ineq_report", "symfun.sigma", "symfun.sigma_all",
               "symfun.sigma_trunc"):
        m[f"{fn}.calls"] = (calls[fn], "count")
        m[f"{fn}.self_s"] = (self_s[fn], "s")
    for fn in ("symfun.sigma", "symfun.sigma_all", "symfun.sigma_trunc"):
        m[f"{fn}.rows"] = (rows[fn], "count")
    return m


def count_flags(workload, seed, counts):
    """Names of count metrics whose value in traced round k differs from
    round k of an earlier traced run with this seed.  The longest record
    per seed is kept in perfbench/out."""
    path = OUT / f"counts-{workload}-seed{seed}.json"
    previous = json.loads(path.read_text()) if path.exists() else []
    flags = sorted({k for old, new in zip(previous, counts) for k in new
                    if k in old and old[k] != new[k]})
    if len(counts) > len(previous):
        path.write_text(json.dumps(previous + counts[len(previous):], indent=1))
    return flags


def measure(args, seed):
    t_start = time.monotonic()
    OUT.mkdir(parents=True, exist_ok=True)
    scratch = OUT / f"tmp-{args.workload}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    runner = Runner(args.workload, seed, scratch, t_start + RUN_LIMIT_S)

    runner.spawn([])  # warm-up: bytecode and file caches, not timed
    for _ in range(SETUP_ONLY_WORKERS):
        res = runner.spawn([])
        if "setup_s" not in res:  # the program does not even import
            runner.attempted += 1
            runner.failures.append(f"setup: {res.get('error')}")
            break
        runner.setup.append(res["setup_s"])

    # round index -> per-round sums; plain[k] and traced[k] share inputs
    plain, traced = {}, {}
    attempted = {False: 0, True: 0}
    t0 = time.monotonic()
    setup_ok = not runner.failures
    while setup_ok:
        trace = bool(args.trace) and attempted[True] < attempted[False]
        index = attempted[trace]
        attempted[trace] += 1
        calls = WORKLOADS[args.workload](round_seed(seed, index), scratch)
        t_round = time.monotonic()
        rnd = runner.run_round(calls, trace, index)
        if rnd is not None:
            (traced if trace else plain)[index] = rnd
        now = time.monotonic()
        rounds = min(attempted.values()) if args.trace else attempted[False]
        # stop once the next round would end past --seconds
        if rounds >= MIN_ROUNDS and now - t0 + (now - t_round) > args.seconds:
            break
        if now - t_start > RUN_LIMIT_S / 2:
            break
    shutil.rmtree(scratch, ignore_errors=True)

    pairs = [(plain.get(k), t) for k, t in traced.items()]
    plain = list(plain.values())
    samples = {k: [r[k] for r in plain] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = runner.setup
    result = {"workload": args.workload, "seed": seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(runner.env),
              "checks": runner.checks, "failures": runner.failures,
              "attempted": runner.attempted}
    metrics, spread = {}, {}
    overheads = [t["wall_s"] / p["wall_s"] - 1.0 for p, t in pairs if p]
    if args.trace and overheads:
        per_round = [layer_metrics(t["layers"]) for _, t in pairs]
        for name, (_, unit) in per_round[0].items():
            values = [r[name][0] for r in per_round]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            spread[name] = (quartiles(values), len(values))
        metrics["trace.overhead_frac"] = {"value": statistics.median(overheads),
                                          "unit": "ratio"}
        spread["trace.overhead_frac"] = (quartiles(overheads), len(overheads))
        counts = [{k: v for k, (v, unit) in r.items() if unit == "count"}
                  for r in per_round]
        result["nondeterministic_counts"] = count_flags(args.workload, seed, counts)
    elif not args.trace and plain and runner.setup:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
            spread[name] = (quartiles(samples[name]), len(samples[name]))
    result["samples"] = samples
    result["metrics"] = metrics
    return result, spread


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--holdout", action="store_true",
                        help=f"use the hold-out seed {HOLDOUT_SEED}")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "phessian" / "cli.py").is_file():
        print(f"error: no phessian sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    seed = HOLDOUT_SEED if args.holdout else args.seed
    if seed < 0:
        parser.error("--seed must be non-negative")

    result, spread = measure(args, seed)
    print("environment:", json.dumps(result["environment"], sort_keys=True))
    for name, ((q1, med, q3), n) in spread.items():
        note = " (computed from array sizes)" if name.endswith("bytes_computed") else ""
        print(f"{name:48s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"n={n} {result['metrics'][name]['unit']}{note}")
    for key, values in sorted(result["checks"].items()):
        print(f"check {key}: max {max(values):.6g} over {len(values)} reports")
    for failure in result["failures"]:
        print("FAILED:", failure)
    if result.get("nondeterministic_counts"):
        print("FLAG: counts differ from an earlier run with this seed:",
              ", ".join(result["nondeterministic_counts"]))
    tag = f"{args.workload}-seed{seed}-trace{args.trace}"
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    failed = len(result["failures"])
    attempted = max(result["attempted"], 1)
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} invocations)")
    print(json.dumps({
        "correct": failed == 0 and bool(result["metrics"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
