"""Batch front end: every capability as a subcommand with reproducible
seeds and machine-readable JSON reports.

Exit status: 0 clean, 1 invariant violation (counterexample serialized in
the report), 2 usage error (argparse's, or an InputError: see _subcommand).
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
from .cone import ConeSpec, maclaurin_report, sample_admissible, tech_ineq_report
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


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    return x


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
    """Write the report as strict JSON: a non-finite number raises
    ValueError instead of printing as NaN or Infinity."""
    text = json.dumps(_jsonable(report), indent=1, sort_keys=True,
                      allow_nan=False) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _subcommand(name, **fixed):
    """Turn a body into a subcommand that writes the report and returns
    the exit status.

    The report's config is every parsed option plus the fixed constants;
    the body reads all of them from one namespace and returns (results,
    violation).  An InputError from the body is the one usage error: it
    prints as `name: message` and the subcommand exits 2 without a report.
    """

    def wrap(body):
        @functools.wraps(body)
        def run(args):
            t0 = time.perf_counter()
            config = {k: v for k, v in vars(args).items()
                      if k not in ("func", "subcommand", "output")}
            config.setdefault("seed", None)
            config.update(fixed)
            try:
                results, violation = body(argparse.Namespace(**config))
            except InputError as exc:
                print(f"{name}: {exc}", file=sys.stderr)
                return 2
            report = {
                "subcommand": name,
                "config": _jsonable(config),
                "seed": config.get("seed"),
                "results": _jsonable(results),
                "violation": _jsonable(violation),
                "wall_time_s": time.perf_counter() - t0,
            }
            _emit(report, args.output)
            return 1 if violation is not None else 0

        return run

    return wrap


# ---------------------------------------------------------------------------
# subcommands

@_subcommand("identities", tol=1e-10)
def cmd_identities(args):
    dims = _parse_range(args.n)
    _require_trials(args)
    results = {}
    violation = None
    for n in dims:
        for p in range(1, n + 1):
            rng = np.random.default_rng([args.seed, n, p])
            mu = rng.uniform(-3.0, 3.0, (args.trials, n))
            res = identity_residuals(p, mu)
            worst_name, worst = None, 0.0
            worst_case = None
            for name, vals in res.items():
                vals = np.atleast_1d(np.asarray(vals))
                i = int(np.argmax(np.abs(vals)))
                if abs(vals[i]) > worst:
                    worst = float(abs(vals[i]))
                    worst_name = name
                    worst_case = mu[i] if len(vals) == len(mu) else mu[0]
            results[f"n{n}_p{p}"] = {"max_residual": worst, "identity": worst_name}
            if worst > args.tol and violation is None:
                violation = {
                    "n": n, "p": p, "identity": worst_name,
                    "mu": worst_case, "residual": worst,
                }
    return results, violation


def _require_trials(args):
    """--trials of a sweep whose count no library call sees: an empty sweep
    would check nothing and still exit 0."""
    if args.trials < 1:
        raise InputError("--trials must be at least 1")


RATIO_KEYS = ("ratio_minor_constant", "ratio_mu1_constant")
# technical inequalities that hold with equality somewhere in the cone (at
# p = n, top_minor is 0 for every vector): flagged only below -tol
NONSTRICT_KEYS = ("minor_chain_min_gap", "top_minor", "trace_lower", "amgm_gap")


@_subcommand("cone", tol=1e-10)
def cmd_cone(args):
    spec = ConeSpec(args.n, args.p)
    rng = np.random.default_rng([args.seed, args.n, args.p])
    samples = np.sort(sample_admissible(args.n, args.p, args.trials, rng), axis=1)
    mac = np.min(list(maclaurin_report(samples, spec).values()), axis=0)
    # per sample, the events in the order they are reported: the Maclaurin
    # slack first, then each technical key
    events = [("maclaurin", mac, mac < -args.tol)]
    ratios = {}
    if args.p >= 2:
        for k, v in tech_ineq_report(samples, spec).items():
            if k in RATIO_KEYS:
                ratios[k] = max(0.0, float(np.max(v)))
            else:
                hit = v < -args.tol if k in NONSTRICT_KEYS else v <= 0
                events.append((k, v, hit))
    violation = None
    failing = np.any([hit for _, _, hit in events], axis=0)
    if np.any(failing):
        i = int(np.argmax(failing))
        kind, slack, _ = next(e for e in events if e[2][i])
        violation = {"kind": kind, "mu": samples[i], "slack": slack[i]}
    results = {
        "maclaurin_min_slack": float(np.min(mac)),
        "technical_min_slacks": {k: float(np.min(v)) for k, v, _ in events[1:]},
        "empirical_constants": ratios,
    }
    return results, violation


@_subcommand("spectral-derivs", fd_step=1e-5, tol=1e-6)
def cmd_spectral_derivs(args):
    # sigma_p of an n-vector is 0 for p > n: no trial could be checked
    ConeSpec(args.n, args.p)
    _require_trials(args)
    rng = np.random.default_rng([args.seed, args.n, args.p])
    worst = 0.0
    worst_mu = None
    eps = args.fd_step
    for _ in range(args.trials):
        gaps = 0.5 + rng.uniform(0.0, 1.0, args.n)
        mu = rng.uniform(-1.0, 1.0) + np.cumsum(gaps)
        D = np.diag(mu)
        der = spectral_derivs(args.p, mu)
        # independent check: FD of sigma_p(eigs(diag(mu) + E)) entrywise
        fd = np.zeros((args.n, args.n))
        for j in range(args.n):
            for k in range(j, args.n):
                E = np.zeros((args.n, args.n))
                E[j, k] = E[k, j] = eps
                sp = sigma(args.p, jacobi_eigh(D + E))
                sm = sigma(args.p, jacobi_eigh(D - E))
                fd[j, k] = fd[k, j] = (sp - sm) / (2 * eps)
        err = float(np.max(np.abs(der.grad_sigma - fd)))
        if err > worst:
            worst, worst_mu = err, mu
    violation = None
    if worst > args.tol:
        violation = {"mu": worst_mu, "max_error": worst}
    results = {"max_gradient_error": worst}
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
    results = {
        "min_residual": float(lam.min()),
        "undetermined": int(np.count_nonzero(np.abs(lam) <= bound)),
        "guaranteed_regime": guaranteed,
        "trials": int(len(lam)),
    }
    violation = None
    violated = np.where(lam < -bound, lam, np.inf)
    if guaranteed and np.isfinite(violated).any():
        i = int(np.argmin(violated))
        violation = {"mu": mus[i], "residual": float(lam[i]), "bound": float(bound[i])}
    return results, violation


@_subcommand("find-m")
def cmd_find_m(args):
    band = _parse_band(args.sigma)
    try:
        out = find_threshold(
            args.n, args.p, args.tau, args.eps, band, args.trials, args.seed
        )
    except SearchFailureError as exc:
        violation = {"kind": "search_failure", "detail": str(exc),
                     "counterexample": getattr(exc, "counterexample", None)}
        return {}, violation
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
    try:
        out = construct(prob)
    except ConstructionError as exc:
        violation = {"kind": "construction_failure", "detail": str(exc),
                     "node": getattr(exc, "node", None)}
        return {}, violation
    results = {
        "A": out.A, "B": out.B, "eps1": out.eps1, "eps2": out.eps2,
        "worst_slack": out.worst_slack,
    }
    violation = None
    if out.worst_slack < 0:
        violation = {"kind": "subsolution_slack", "worst_slack": out.worst_slack}
    return results, violation


@_subcommand("key-lemma", tol=-1e-9)
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
    verified = 0
    failed = 0
    worst = np.inf
    violation = None
    first_failure = None
    for i, (cfg, (lhs, rhs, ok, escape)) in enumerate(zip(cfgs, checks)):
        if not ok:
            failed += 1
            if first_failure is None:
                first_failure = {"case": i, "direction": escape[0],
                                 "norm": escape[1]}
            continue
        verified += 1
        worst = min(worst, lhs - rhs)
        if lhs - rhs < args.tol and violation is None:
            violation = {"mu": cfg.mu, "nu": cfg.nu, "delta": cfg.delta, "a": cfg.a,
                         "lhs": lhs, "rhs": rhs}
    results = {
        "verified": verified,
        "hypothesis_failed": failed,
        "first_failure": first_failure,
        "min_slack": None if verified == 0 else float(worst),
    }
    return results, violation


@_subcommand("solve")
def cmd_solve(args):
    if args.manufactured and args.problem:
        raise InputError("--manufactured and --problem are mutually exclusive")
    if args.manufactured:
        if not np.isfinite(args.perturb):
            raise InputError(f"--perturb must be finite, got {args.perturb}")
        spec, grid, ustar = manufactured_problem((args.manufactured,) * 2, p=args.p)
        rng = np.random.default_rng(args.seed)
        bump = smooth_perturbation(
            grid, rng, args.perturb * np.max(np.abs(ustar.values))
        )
        u0 = GridFn(grid, ustar.values + bump)
    elif args.problem:
        if not args.initial:
            raise InputError("--initial grid CSV required with --problem")
        spec = load_problem_json(args.problem)
        u0 = load_grid_csv(args.initial)
    else:
        raise InputError("either --manufactured or --problem is required")

    try:
        sol, trace = newton_solve(spec, u0, tol=args.tol)
    except (NonconvergenceError, AdmissibilityError) as exc:
        violation = {"kind": type(exc).__name__, "detail": str(exc),
                     "trace": getattr(exc, "trace", None)}
        return {}, violation

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
    try:
        lhs, rhs, contact = alexandrov_check(prob)
    except VerificationError as exc:
        violation = {"kind": "measure_bound", "detail": str((exc.lhs, exc.rhs))}
        return {}, violation
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

def build_parser():
    parser = argparse.ArgumentParser(
        prog="phessian",
        description="Verification toolkit for p-Hessian equations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seed=True):
        p.add_argument("--output", default=None, help="report path (default stdout)")
        if seed:
            p.add_argument("--seed", type=_seed, default=0)

    p = sub.add_parser("identities", help="fuzz the sigma identity family")
    p.add_argument("--n", default="3..8", help="dimension or range like 3..8")
    p.add_argument("--trials", type=int, default=1000)
    common(p)
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("cone", help="Maclaurin and technical inequality sweep")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--trials", type=int, default=1000)
    common(p)
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("spectral-derivs", help="derivative formulas vs finite differences")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)
    common(p)
    p.set_defaults(func=cmd_spectral_derivs)

    p = sub.add_parser("concavity-fuzz", help="concavity inequality sweeps")
    p.add_argument("--mode", choices=("large_mu1", "small_mu1", "theorem"),
                   default="large_mu1")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--mu-n-min", type=float, default=None)
    p.add_argument("--trials", type=int, default=1000)
    common(p)
    p.set_defaults(func=cmd_concavity_fuzz)

    p = sub.add_parser("find-m", help="bisect the eigenvalue threshold")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--sigma", default="0.5:2", help="target band lo:hi")
    p.add_argument("--trials", type=int, default=1000)
    common(p)
    p.set_defaults(func=cmd_find_m)

    p = sub.add_parser("subsolution", help="exponential-bump subsolution on a ball")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--phi", type=float, default=0.1)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--resolution", type=int, default=65)
    common(p, seed=False)
    p.set_defaults(func=cmd_subsolution)

    p = sub.add_parser("key-lemma", help="level-set comparison lemma sweep")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--R", type=float, default=60.0)
    p.add_argument("--directions", type=int, default=500)
    common(p)
    p.set_defaults(func=cmd_key_lemma)

    p = sub.add_parser("solve", help="damped Newton on the periodic problem")
    p.add_argument("--problem", default=None, help="equation JSON path")
    p.add_argument("--initial", default=None, help="initial grid CSV path")
    p.add_argument("--manufactured", type=int, default=None,
                   help="grid size for the built-in test problem")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--perturb", type=float, default=0.05)
    p.add_argument("--solution", default=None, help="write solution CSV here")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("alexandrov", help="contact-set measure estimate")
    p.add_argument("--case", choices=("quadratic", "quartic", "cosh"),
                   default="quadratic")
    p.add_argument("--d", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--resolution", type=int, default=65)
    common(p, seed=False)
    p.set_defaults(func=cmd_alexandrov)

    p = sub.add_parser("pseudo-check", help="pseudo-solution necessary conditions")
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--delta1", type=float, default=0.1)
    p.add_argument("--M1", type=float, default=10.0)
    p.add_argument("--delta2", type=float, default=0.5)
    p.add_argument("--M2", type=float, default=1.0)
    common(p, seed=False)
    p.set_defaults(func=cmd_pseudo_check)

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
