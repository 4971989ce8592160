"""Batch front end: every capability as a subcommand with reproducible
seeds and machine-readable JSON reports.

Exit status: 0 clean, 1 invariant violation (counterexample serialized in
the report; a typed failure in VIOLATIONS is one), 2 usage error
(argparse's, or an InputError: see _subcommand).
Identical config + seed gives byte-identical reports except for the
wall_time_s field.
"""

import argparse
import dataclasses
import functools
import json
import sys
import time

import numpy as np

from .concavity import (
    find_threshold,
    residual_batch,
    sample_hypothesis_points,
    validate_mode,
)
from .cone import ConeSpec, maclaurin_report, sample_admissible, tech_ineq_report, verdict
from .errors import (
    AdmissibilityError,
    ConstructionError,
    InputError,
    NonconvergenceError,
    SearchFailureError,
    VerificationError,
)
from .solver import (
    AlexandrovProblem,
    GridFn,
    PseudoCheckConfig,
    alexandrov_check,
    load_grid_csv,
    load_problem_json,
    manufactured_problem,
    monitors,
    newton_solve,
    pseudo_check,
    residual_field,
    residual_norm,
    save_grid_csv,
    smooth_perturbation,
)
from .spectral import jacobi_eigh, spectral_derivs
from .subsolution import BallProblem, KeyLemmaConfig, construct, key_lemma_sweep
from .symfun import identity_residuals, sigma


def _parse_range(text):
    """'3..8' -> [3..8], '4' -> [4]; usage error unless the range is
    non-empty and starts at 1 or above."""
    lo, _, hi = text.partition("..")
    try:
        dims = list(range(int(lo), int(hi or lo) + 1))
    except ValueError:
        dims = []
    if not dims or dims[0] < 1:
        raise InputError(
            f"--n must be a dimension >= 1 or a range lo..hi, got {text!r}"
        )
    return dims


def _seed(text):
    """--seed value: a non-negative integer, as numpy's seeding needs."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return seed


def _parse_band(text):
    """'lo:hi' -> (lo, hi); usage error unless both are finite and
    0 < lo <= hi."""
    try:
        lo, hi = (float(x) for x in text.split(":"))
    except ValueError:
        lo = hi = np.nan
    if not 0.0 < lo <= hi < np.inf:
        raise InputError(
            f"--sigma must be lo:hi with 0 < lo <= hi finite, got {text!r}"
        )
    return lo, hi


def _emit(report, output):
    """Write the report as strict JSON: numpy arrays and scalars go through
    .tolist(), and a non-finite number raises ValueError instead of
    printing as NaN or Infinity."""
    text = json.dumps(report, indent=1, sort_keys=True, allow_nan=False,
                      default=lambda x: x.tolist()) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# the typed failures a subcommand reports as violations, with the kind each
# reports as; the violation also holds the error's message as detail and
# every value the error carries (node, lam, trace, counterexample, lhs, rhs)
VIOLATIONS = {
    SearchFailureError: "search_failure",
    ConstructionError: "construction_failure",
    NonconvergenceError: "NonconvergenceError",
    AdmissibilityError: "AdmissibilityError",
    VerificationError: "measure_bound",
}


def _subcommand(name, **fixed):
    """Turn a body into a subcommand that writes the report and returns
    the exit status.

    The body reads every parsed option and the fixed constants from one
    namespace and returns (results, violation); it may record there what it
    resolved, and the report's config is that namespace after the body has
    run.  An InputError from the body is the one usage error: it prints as
    `name: message` and the subcommand exits 2 without a report.  An error
    of a type in VIOLATIONS becomes the violation of a report with empty
    results, and the subcommand exits 1.
    """

    def wrap(body):
        @functools.wraps(body)
        def run(args):
            t0 = time.perf_counter()
            config = {k: v for k, v in vars(args).items()
                      if k not in ("func", "subcommand", "output")}
            ns = argparse.Namespace(**{"seed": None, **config, **fixed})
            try:
                results, violation = body(ns)
            except InputError as exc:
                print(f"{name}: {exc}", file=sys.stderr)
                return 2
            except tuple(VIOLATIONS) as exc:
                results = {}
                violation = {"kind": VIOLATIONS[type(exc)], "detail": str(exc), **vars(exc)}
            report = {
                "subcommand": name,
                "config": vars(ns),
                "seed": ns.seed,
                "results": results,
                "violation": violation,
                "wall_time_s": time.perf_counter() - t0,
            }
            _emit(report, args.output)
            return 1 if violation is not None else 0

        return run

    return wrap


# ---------------------------------------------------------------------------
# subcommands

@_subcommand("identities")
def cmd_identities(args):
    dims = _parse_range(args.n)
    _require_trials(args)
    results = {}
    violation = None
    for n in dims:
        for p in range(1, n + 1):
            rng = np.random.default_rng([args.seed, n, p])
            mu = rng.uniform(-3.0, 3.0, (args.trials, n))
            residual, bound = identity_residuals(p, mu)
            names = list(residual)
            residual, bound = (np.stack([d[k] for k in names], axis=-1)
                               for d in (residual, bound))
            counts, _, first = verdict(bound - residual, 0.0)
            worst = int(np.argmax(residual))
            results[f"n{n}_p{p}"] = {"max_residual": float(residual.flat[worst]),
                                     "identity": names[worst % len(names)], **counts}
            if first is not None and violation is None:
                i, k = divmod(first, len(names))
                violation = {"n": n, "p": p, "identity": names[k], "mu": mu[i],
                             "residual": residual[i, k], "bound": bound[i, k]}
    return results, violation


def _require_trials(args):
    """--trials of a sweep whose count no library call sees: an empty sweep
    would check nothing and still exit 0."""
    if args.trials < 1:
        raise InputError("--trials must be at least 1")


@_subcommand("cone")
def cmd_cone(args):
    spec = ConeSpec(args.n, args.p)
    rng = np.random.default_rng([args.seed, args.n, args.p])
    samples = np.sort(sample_admissible(args.n, args.p, args.trials, rng), axis=1)
    # per sample, the rows in the order they are reported: the Maclaurin
    # keys first, then each technical key; the ratios have no bound
    slack, bound = maclaurin_report(samples, spec)
    tech = tech_ineq_report(samples, spec) if args.p >= 2 else ({}, {})
    slack.update(tech[0])
    bound.update(tech[1])
    keys = list(bound)
    if not keys:
        raise InputError(f"cone at n = {args.n}, p = {args.p} has no inequality whose "
                         f"sides differ: no row could be checked")
    counts, _, first = verdict(*(np.transpose([d[k] for k in keys]) for d in (slack, bound)))
    violation = None
    if first is not None:
        i, k = divmod(first, len(keys))
        key = keys[k]
        violation = {"kind": "maclaurin" if isinstance(key, tuple) else key, "key": key,
                     "mu": samples[i], "slack": slack[key][i], "bound": bound[key][i]}
    mac = [float(np.min(slack[k])) for k in keys if isinstance(k, tuple)]
    results = {
        "maclaurin_min_slack": min(mac, default=None),
        "technical_min_slacks": {k: float(np.min(slack[k])) for k in tech[1]},
        "empirical_constants": {k: max(0.0, float(np.max(x)))
                                for k, x in tech[0].items() if k not in tech[1]},
        **counts,
    }
    return results, violation


@_subcommand("spectral-derivs", fd_step=1e-5, tol=1e-6)
def cmd_spectral_derivs(args):
    # sigma_p of an n-vector is 0 for p > n: no trial could be checked
    ConeSpec(args.n, args.p)
    _require_trials(args)
    rng = np.random.default_rng([args.seed, args.n, args.p])
    n, eps = args.n, args.fd_step
    # each trial's n gaps in (0.5, 1.5), then its shift in (-1, 1), drawn as
    # rng.uniform(lo, hi) draws them: lo + (hi - lo) times one rng.random()
    draws = rng.random((args.trials, n + 1))
    mus = (-1.0 + 2.0 * draws[:, n:]) + np.cumsum(0.5 + draws[:, :n], axis=1)
    # independent check: FD of sigma_p(eigs(diag(mu) +- E)) for every trial
    # and entry j <= k at once, E symmetric with eps at (j, k)
    j, k = np.triu_indices(n)
    pair = np.arange(len(j))
    E = np.zeros((len(j), n, n))
    E[pair, j, k] = E[pair, k, j] = eps
    D = np.zeros((args.trials, 1, n, n))
    D[..., range(n), range(n)] = mus[:, None]
    sp, sm = sigma(args.p, jacobi_eigh(np.stack([D + E, D - E])))
    fd = np.zeros((args.trials, n, n))
    fd[:, j, k] = fd[:, k, j] = (sp - sm) / (2 * eps)
    der = np.stack([spectral_derivs(args.p, mu).grad_sigma for mu in mus])
    err = np.max(np.abs(der - fd), axis=(1, 2))
    worst = int(np.argmax(err))
    violation = None
    if err[worst] > args.tol:
        violation = {"mu": mus[worst], "max_error": err[worst]}
    results = {"max_gradient_error": err[worst]}
    return results, violation


@_subcommand("concavity-fuzz")
def cmd_concavity_fuzz(args):
    rng = np.random.default_rng([args.seed, args.n])
    if args.mu_n_min is not None:
        if args.mode == "large_mu1":
            raise InputError("--mu-n-min does not apply to mode large_mu1")
        # only a finite, non-negative shift of mu_n keeps the samples
        # sorted and admissible
        if not 0.0 <= args.mu_n_min < np.inf:
            raise InputError("--mu-n-min must be finite and non-negative")
    if args.mode == "large_mu1":
        mus = sample_hypothesis_points(args.n, args.tau, args.eps, args.a, args.trials, rng)
        guaranteed = True
    else:
        r, _, _ = validate_mode(
            args.n, args.mode, args.tau, args.eps, a=args.a, p=args.p
        )
        mus = np.sort(sample_admissible(args.n, r, args.trials, rng), axis=1)
        if args.mu_n_min is not None:
            mus[:, -1] += args.mu_n_min
        # without a certified eigenvalue threshold the sweep is exploratory
        guaranteed = False
    lam, bound = residual_batch(mus, args.mode, args.tau, args.eps, a=args.a, p=args.p)
    counts, worst, first = verdict(lam, bound)
    results = {
        "min_residual": float(lam[worst]),
        **counts,
        "guaranteed_regime": guaranteed,
        "trials": int(len(lam)),
    }
    violation = None
    if guaranteed and first is not None:
        violation = {"mu": mus[first], "residual": float(lam[first]),
                     "bound": float(bound[first])}
    return results, violation


@_subcommand("find-m")
def cmd_find_m(args):
    band = _parse_band(args.sigma)
    out = find_threshold(args.n, args.p, args.tau, args.eps, band, args.trials, args.seed)
    results = {
        "M_hat": out.M_hat,
        "trials": out.trials,
        "worst_residual": out.worst_residual,
        "history": out.history,
    }
    return results, None


@_subcommand("subsolution")
def cmd_subsolution(args):
    # the construction needs phi_tilde > 0
    if not 0.0 < args.phi < np.inf:
        raise InputError(f"--phi must be positive and finite, got {args.phi}")

    def u(pts):
        return 0.5 * (np.sum(pts**2, axis=-1) - args.radius**2)

    def psi(pts):
        return np.zeros(len(pts))

    prob = BallProblem(
        n=args.n, radius=args.radius, resolution=args.resolution,
        p=args.p, alpha=args.alpha, psi=psi,
        phi_tilde=lambda pts, t: np.full(len(pts), args.phi), u=u,
    )
    out = construct(prob)
    results = {
        "A": out.A, "B": out.B, "eps1": out.eps1, "eps2": out.eps2,
        "worst_slack": out.worst_slack,
    }
    violation = None
    if out.worst_slack < 0:
        violation = {"kind": "subsolution_slack", "worst_slack": out.worst_slack}
    return results, violation


@_subcommand("key-lemma")
def cmd_key_lemma(args):
    _require_trials(args)
    rng = np.random.default_rng([args.seed, args.n, args.p])
    cfgs = []
    for _ in range(args.trials):
        # positive, so inside every cone
        nu = rng.uniform(0.2, 3.0, args.n)
        mu = rng.uniform(-1.0, 4.0, args.n)
        cfgs.append(KeyLemmaConfig(
            n=args.n, p=args.p, delta=rng.uniform(0.1, 1.0), R=args.R,
            a=rng.uniform(0.5, 2.0), mu=mu, nu=nu,
        ))
    checks = key_lemma_sweep(cfgs, args.directions, range(args.trials))
    ok = np.array([c[2] for c in checks])
    verified, failed = np.flatnonzero(ok), np.flatnonzero(~ok)
    slack = np.array([c[0] - c[1] for c in checks])[verified]
    counts, worst, first = verdict(slack, np.array([c[4] for c in checks])[verified])
    first_failure = None
    if failed.size:
        direction, norm = checks[failed[0]][3]
        first_failure = {"case": int(failed[0]), "direction": direction, "norm": norm}
    violation = None
    if first is not None:
        i = verified[first]
        cfg, (lhs, rhs, _, _, bound) = cfgs[i], checks[i]
        violation = {"mu": cfg.mu, "nu": cfg.nu, "delta": cfg.delta, "a": cfg.a,
                     "lhs": lhs, "rhs": rhs, "bound": bound}
    results = {
        "verified": len(verified),
        "hypothesis_failed": len(failed),
        "first_failure": first_failure,
        "min_slack": None if worst is None else float(slack[worst]),
        **counts,
    }
    return results, violation


@_subcommand("solve")
def cmd_solve(args):
    if args.manufactured and args.problem:
        raise InputError("--manufactured and --problem are mutually exclusive")
    if args.manufactured:
        if args.initial:
            raise InputError("--initial applies to --problem only")
        # the built-in problem's defaults, resolved here so the config records them
        args.p = 2 if args.p is None else args.p
        args.perturb = 0.05 if args.perturb is None else args.perturb
        if not np.isfinite(args.perturb):
            raise InputError(f"--perturb must be finite, got {args.perturb}")
        spec, grid, ustar = manufactured_problem((args.manufactured,) * 2, p=args.p)
        rng = np.random.default_rng(args.seed)
        bump = smooth_perturbation(
            grid, rng, args.perturb * np.max(np.abs(ustar.values))
        )
        u0 = GridFn(grid, ustar.values + bump)
    elif args.problem:
        if args.p is not None or args.perturb is not None:
            raise InputError("--p and --perturb apply to --manufactured only")
        if not args.initial:
            raise InputError("--initial grid CSV required with --problem")
        spec = load_problem_json(args.problem)
        u0 = load_grid_csv(args.initial)
        # the problem JSON sets p, and nothing is drawn
        args.p, args.seed = spec.p, None
    else:
        raise InputError("either --manufactured or --problem is required")

    sol, trace = newton_solve(spec, u0, tol=args.tol)
    if trace:
        # the last accepted linearization was taken at sol
        final, raw = trace[-1]["residual"], trace[-1]["raw_residual"]
    else:
        res = residual_field(sol, spec).values
        final, raw = residual_norm(res, spec), float(np.max(np.abs(res)))
    results = {
        "iterations": len(trace),
        "trace": trace,
        "monitors": dataclasses.asdict(monitors(sol, spec)),
        "final_residual": final,
        "raw_residual": raw,
    }
    if args.solution:
        save_grid_csv(args.solution, sol)
    return results, None


@_subcommand("alexandrov")
def cmd_alexandrov(args):
    if args.case == "quadratic":
        w = lambda pts: np.sum(pts**2, axis=-1)  # noqa: E731
    elif args.case == "quartic":
        w = lambda pts: np.sum(pts**2, axis=-1) ** 2 + np.sum(pts**2, axis=-1)  # noqa: E731
    else:
        w = lambda pts: np.cosh(np.linalg.norm(pts, axis=-1)) - 1.0  # noqa: E731
    prob = AlexandrovProblem(
        center=(0.0, 0.0), d=args.d, resolution=args.resolution,
        w=w, eps=args.eps,
    )
    lhs, rhs, contact = alexandrov_check(prob)
    results = {
        "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs,
        "contact_nodes": int(contact.sum()),
    }
    return results, None


@_subcommand("pseudo-check")
def cmd_pseudo_check(args):
    spec, grid, ustar = manufactured_problem((args.size,) * 2, p=args.p)
    cfg = PseudoCheckConfig(
        delta1=args.delta1, M1=args.M1, delta2=args.delta2, M2=args.M2,
        ubar=ustar,
    )
    results = dataclasses.asdict(pseudo_check(ustar, cfg, spec))
    violation = None
    if results["sub_violations"] or results["super_violations"]:
        violation = {"kind": "pseudo_condition", "report": results}
    return results, violation


# ---------------------------------------------------------------------------
# argument parsing

# name -> (help, body, takes --seed, options as (flag, add_argument
# keywords)); every subcommand also takes --output
SUBCOMMANDS = {
    "identities": ("fuzz the sigma identity family", cmd_identities, True, [
        ("--n", {"default": "3..8", "help": "dimension or range like 3..8"}),
        ("--trials", {"type": int, "default": 1000}),
    ]),
    "cone": ("Maclaurin and technical inequality sweep", cmd_cone, True, [
        ("--n", {"type": int, "default": 4}),
        ("--p", {"type": int, "default": 2}),
        ("--trials", {"type": int, "default": 1000}),
    ]),
    "spectral-derivs": ("derivative formulas vs finite differences",
                        cmd_spectral_derivs, True, [
        ("--n", {"type": int, "default": 4}),
        ("--p", {"type": int, "default": 2}),
        ("--trials", {"type": int, "default": 100}),
    ]),
    "concavity-fuzz": ("concavity inequality sweeps", cmd_concavity_fuzz, True, [
        ("--mode", {"choices": ("large_mu1", "small_mu1", "theorem"),
                    "default": "large_mu1"}),
        ("--n", {"type": int, "default": 3}),
        ("--p", {"type": int, "default": None}),
        ("--tau", {"type": float, "default": 0.0}),
        ("--eps", {"type": float, "default": 1.0}),
        ("--a", {"type": float, "default": None}),
        ("--mu-n-min", {"type": float, "default": None}),
        ("--trials", {"type": int, "default": 1000}),
    ]),
    "find-m": ("bisect the eigenvalue threshold", cmd_find_m, True, [
        ("--n", {"type": int, "required": True}),
        ("--p", {"type": int, "required": True}),
        ("--tau", {"type": float, "required": True}),
        ("--eps", {"type": float, "default": 1.0}),
        ("--sigma", {"default": "0.5:2", "help": "target band lo:hi"}),
        ("--trials", {"type": int, "default": 1000}),
    ]),
    "subsolution": ("exponential-bump subsolution on a ball", cmd_subsolution, False, [
        ("--n", {"type": int, "default": 2}),
        ("--p", {"type": int, "default": 2}),
        ("--alpha", {"type": float, "default": 0.5}),
        ("--phi", {"type": float, "default": 0.1}),
        ("--radius", {"type": float, "default": 1.0}),
        ("--resolution", {"type": int, "default": 65}),
    ]),
    "key-lemma": ("level-set comparison lemma sweep", cmd_key_lemma, True, [
        ("--n", {"type": int, "default": 3}),
        ("--p", {"type": int, "default": 2}),
        ("--trials", {"type": int, "default": 100}),
        ("--R", {"type": float, "default": 60.0}),
        ("--directions", {"type": int, "default": 500}),
    ]),
    "solve": ("damped Newton on the periodic problem", cmd_solve, True, [
        ("--problem", {"default": None, "help": "equation JSON path"}),
        ("--initial", {"default": None, "help": "initial grid CSV path (--problem only)"}),
        ("--manufactured", {"type": int, "default": None,
                            "help": "grid size for the built-in test problem"}),
        ("--p", {"type": int, "default": None,
                 "help": "order of the built-in problem (--manufactured only; default 2)"}),
        ("--tol", {"type": float, "default": 1e-9}),
        ("--perturb", {"type": float, "default": None,
                       "help": "relative size of the start's perturbation "
                               "(--manufactured only; default 0.05)"}),
        ("--solution", {"default": None, "help": "write solution CSV here"}),
    ]),
    "alexandrov": ("contact-set measure estimate", cmd_alexandrov, False, [
        ("--case", {"choices": ("quadratic", "quartic", "cosh"), "default": "quadratic"}),
        ("--d", {"type": float, "default": 1.0}),
        ("--eps", {"type": float, "default": 0.5}),
        ("--resolution", {"type": int, "default": 65}),
    ]),
    "pseudo-check": ("pseudo-solution necessary conditions", cmd_pseudo_check, False, [
        ("--size", {"type": int, "default": 32}),
        ("--p", {"type": int, "default": 2}),
        ("--delta1", {"type": float, "default": 0.1}),
        ("--M1", {"type": float, "default": 10.0}),
        ("--delta2", {"type": float, "default": 0.5}),
        ("--M2", {"type": float, "default": 1.0}),
    ]),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="phessian",
        description="Verification toolkit for p-Hessian equations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_, body, seed, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.add_argument("--output", default=None, help="report path (default stdout)")
        if seed:
            p.add_argument("--seed", type=_seed, default=0)
        p.set_defaults(func=body)
    return parser


@functools.cache
def _parser():
    """The parser, built on the first call and reused by every later one."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
