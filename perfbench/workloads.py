"""The benchmark's workloads: CLI argv lists derived from a seed, and the
check each report must pass.

Each workload is a closed loop with one client: a round runs its
invocations one after another in one fresh process, and the next round
starts only when every report of the previous one has been checked.
"""

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

NEWTON_SIZE = 128
# At 1e-9 some perturbations converge in two Newton steps and others in
# three, a 50% swing in work between seeds; at 1e-12 every seed takes three
# (the third step lands near 1e-14, limited by rounding in the stencils).
NEWTON_TOL = 1e-12
NEWTON_AMPLITUDE = 0.2  # u* = a cos x1 cos x2, as in manufactured_problem
# |u_h - u*| is O(h^2): about 0.019 h^2 on these grids
SOLUTION_ERROR_PER_H2 = 0.05
SLACK_TOL = -1e-9


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the check its report must pass."""

    argv: list
    check: Callable  # (exit code, report dict) -> (failure or None, extras)


def _base_failure(code, report, subcommand):
    if code != 0:
        return f"{subcommand}: exit code {code}"
    if report.get("subcommand") != subcommand:
        return f"{subcommand}: report is for {report.get('subcommand')!r}"
    if report.get("violation") is not None:
        return f"{subcommand}: violation {report['violation']!r}"
    return None


def _exact_solution_error(path):
    """max |u_h - u*| of a solution CSV against the closed-form u*."""
    with open(path) as fh:
        head = fh.readline().split(",")
        values = np.loadtxt(fh)
    d, sizes = int(head[0]), [int(s) for s in head[1:3]]
    if d != 2 or sizes != [NEWTON_SIZE, NEWTON_SIZE]:
        raise ValueError(f"unexpected solution grid {head}")
    x = 2.0 * math.pi * np.arange(NEWTON_SIZE) / NEWTON_SIZE
    ustar = NEWTON_AMPLITUDE * np.outer(np.cos(x), np.cos(x))
    return float(np.max(np.abs(values.reshape(sizes) - ustar)))


def _newton_periodic(seed, scratch):
    solution = Path(scratch) / "solution.csv"

    def check(code, report):
        failure = _base_failure(code, report, "solve")
        if failure:
            return failure, {}
        res = report["results"]
        if not res["final_residual"] <= NEWTON_TOL:
            return f"solve: final_residual {res['final_residual']} > tol", {}
        err = _exact_solution_error(solution)
        h = 2.0 * math.pi / NEWTON_SIZE
        extras = {"solution_error": err}
        if not err <= SOLUTION_ERROR_PER_H2 * h * h:
            return f"solve: solution_error {err} exceeds O(h^2)", extras
        return None, extras

    argv = ["solve", "--manufactured", str(NEWTON_SIZE), "--tol", repr(NEWTON_TOL),
            "--seed", str(seed), "--solution", str(solution)]
    return [Call(argv, check)]


def _ball_subsolution(seed, scratch):
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.05, 0.2)
    alpha = rng.uniform(0.3, 0.7)

    def check(code, report):
        failure = _base_failure(code, report, "subsolution")
        if failure:
            return failure, {}
        slack = report["results"]["worst_slack"]
        if not slack >= 0:
            return f"subsolution: worst_slack {slack} < 0", {}
        return None, {}

    argv = ["subsolution", "--n", "3", "--p", "2", "--resolution", "97",
            "--phi", f"{phi:.6f}", "--alpha", f"{alpha:.6f}"]
    return [Call(argv, check)]


def _check_key_lemma(code, report):
    failure = _base_failure(code, report, "key-lemma")
    if failure:
        return failure, {}
    res = report["results"]
    if not res["verified"] > 0:
        return "key-lemma: nothing verified", {}
    if not res["min_slack"] >= SLACK_TOL:
        return f"key-lemma: min_slack {res['min_slack']}", {}
    return None, {}


def _check_concavity(code, report):
    failure = _base_failure(code, report, "concavity-fuzz")
    if failure:
        return failure, {}
    res = report["results"]
    if not res["min_residual"] >= SLACK_TOL:
        return f"concavity-fuzz: min_residual {res['min_residual']}", {}
    return None, {}


def _check_cone(code, report):
    return _base_failure(code, report, "cone"), {}


def _cone_sweeps(seed, scratch):
    s = str(seed)
    return [
        Call(["key-lemma", "--n", "3", "--p", "2", "--trials", "50",
              "--directions", "2000", "--seed", s], _check_key_lemma),
        Call(["concavity-fuzz", "--mode", "large_mu1", "--n", "5", "--a", "2.5",
              "--trials", "1000", "--seed", s], _check_concavity),
        Call(["cone", "--n", "5", "--p", "3", "--trials", "500", "--seed", s],
             _check_cone),
    ]


# name -> (round seed, scratch dir) -> the round's calls.  Why each was
# chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "newton_periodic": _newton_periodic,
    "ball_subsolution": _ball_subsolution,
    "cone_sweeps": _cone_sweeps,
}
