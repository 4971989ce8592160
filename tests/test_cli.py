"""Tests for the batch front end: exit codes, reports, determinism."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from phessian import cli, solver
from phessian.cli import main
from phessian.solver import (
    EquationSpec,
    GridFn,
    TorusGrid,
    load_grid_csv,
    manufactured_problem,
    save_grid_csv,
    save_problem_json,
)


def run(tmp_path, name, *argv):
    out = os.path.join(tmp_path, name)
    status = main(list(argv) + ["--output", out])
    with open(out) as fh:
        return status, json.load(fh)


SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def src_env():
    """This environment with the package source first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def run_subprocess(tmp_path, *argv):
    """main(argv) in a fresh interpreter with a timeout, so a hang fails."""
    out = os.path.join(tmp_path, "report.json")
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from phessian.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv, "--output", out],
        env=src_env(), capture_output=True, text=True, timeout=60,
    ), out


def strip_walltime(report):
    out = dict(report)
    out.pop("wall_time_s")
    return out


def test_identities_clean(tmp_path):
    status, rep = run(
        tmp_path, "id.json", "identities", "--n", "3..4", "--trials", "200",
        "--seed", "7",
    )
    assert status == 0
    assert rep["violation"] is None
    assert rep["seed"] == 7
    assert "n3_p2" in rep["results"]
    assert all(v["max_residual"] <= 1e-10 for v in rep["results"].values())


def test_cone_reports_constants(tmp_path):
    status, rep = run(
        tmp_path, "cone.json", "cone", "--n", "4", "--p", "2",
        "--trials", "100", "--seed", "1",
    )
    assert status == 0
    assert min(rep["results"]["technical_min_slacks"].values()) > 0
    assert rep["results"]["empirical_constants"]["ratio_minor_constant"] > 0


def _planted(report, plants, seen):
    """report with slacks overwritten: plants is [(key or None, row, value)],
    None meaning one Maclaurin key; the batch it ran on goes into seen."""

    def fake(mus, spec):
        seen["mus"] = mus
        rep = {k: np.array(v) for k, v in report(mus, spec).items()}
        for key, row, value in plants:
            rep[key or next(iter(rep))][row] = value
        return rep

    return fake


@pytest.mark.parametrize("mac_plants, tech_plants, kind, slack", [
    # the first sample with any event wins, whatever the event
    ([(None, 7, -1.0)], [("minor_positive", 3, -0.5), ("partial_sum", 5, -0.25)],
     "minor_positive", -0.5),
    # within a sample: Maclaurin first, then the tech keys in report order
    ([(None, 3, -1.0)], [("minor_positive", 3, -0.5), ("top_spread", 3, -0.25)],
     "maclaurin", -1.0),
    ([], [("minor_positive", 3, -0.5), ("top_spread", 3, -0.25)],
     "top_spread", -0.25),
])
def test_cone_violation_is_first_event_in_sample_order(
    tmp_path, monkeypatch, mac_plants, tech_plants, kind, slack
):
    seen = {}
    monkeypatch.setattr(cli, "maclaurin_report",
                        _planted(cli.maclaurin_report, mac_plants, seen))
    monkeypatch.setattr(cli, "tech_ineq_report",
                        _planted(cli.tech_ineq_report, tech_plants, {}))
    status, rep = run(
        tmp_path, "cv.json", "cone", "--n", "4", "--p", "2", "--trials", "10",
        "--seed", "1",
    )
    assert status == 1
    assert rep["violation"] == {"kind": kind, "mu": seen["mus"][3].tolist(),
                                "slack": slack}
    for _, _, value in mac_plants:
        assert rep["results"]["maclaurin_min_slack"] == value
    for key, _, value in tech_plants:
        assert rep["results"]["technical_min_slacks"][key] == value


@pytest.mark.parametrize("n, p, seed", [(2, 2, 9), (7, 7, 5)])
def test_cone_at_p_equal_n_is_clean(tmp_path, n, p, seed):
    # top_minor = mu_n sigma_{n-1}(mu|n) - sigma_n is 0 for every vector at
    # p = n: a non-strict inequality is flagged only below -tol
    status, rep = run(
        tmp_path, "cpn.json", "cone", "--n", str(n), "--p", str(p),
        "--trials", "300", "--seed", str(seed),
    )
    assert status == 0
    assert rep["violation"] is None
    assert rep["results"]["technical_min_slacks"]["top_minor"] >= -1e-10


@pytest.mark.parametrize("argv", [
    ("cone", "--trials", "0"),
    ("cone", "--trials", "-3"),
    ("cone", "--n", "3", "--p", "4"),
    ("cone", "--p", "0"),
    ("key-lemma", "--n", "3", "--p", "5"),
    ("key-lemma", "--trials", "0"),
    ("find-m", "--n", "3", "--p", "2", "--tau", "0.7"),
    ("find-m", "--n", "3", "--p", "1", "--tau", "0.5"),
    ("find-m", "--n", "3", "--p", "2", "--tau", "0.5", "--trials", "0"),
    ("find-m", "--n", "3", "--p", "2", "--tau", "0.5", "--sigma", "2"),
    ("find-m", "--n", "3", "--p", "2", "--tau", "0.5", "--sigma", "2:1"),
    ("find-m", "--n", "3", "--p", "2", "--tau", "0.5", "--sigma", "nan:1"),
    # sigma_5 of a 3-vector is 0: no trial could be checked
    ("spectral-derivs", "--n", "3", "--p", "5"),
    ("spectral-derivs", "--trials", "0"),
    ("identities", "--n", "0"),
    ("identities", "--n", "abc"),
    ("identities", "--n", "5..3"),
    ("identities", "--trials", "0"),
    # no ray would be sampled, so no case could be checked
    ("key-lemma", "--directions", "0"),
    ("key-lemma", "--R", "-1"),
    ("key-lemma", "--R", "nan"),
])
def test_sweep_bad_input_is_usage_error(tmp_path, argv):
    proc, out = run_subprocess(tmp_path, *argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"{argv[0]}: ")
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ("subsolution", "--resolution", "5"),
    ("alexandrov", "--resolution", "3"),
    ("alexandrov", "--resolution", "2"),
    ("alexandrov", "--eps", "5"),
    ("subsolution", "--phi", "-1"),
    ("subsolution", "--phi", "nan"),
    ("solve", "--manufactured", "4"),
    ("solve", "--manufactured", "32", "--p", "0"),
    ("solve", "--manufactured", "32", "--p", "3"),
    ("solve", "--manufactured", "32", "--perturb", "nan"),
    ("solve", "--manufactured", "32", "--tol", "nan"),
    ("solve", "--manufactured", "32", "--tol", "0"),
    ("solve", {"p": 3, "A": {"kind": "conformal", "value": 1.0},
               "rhs": {"kind": "constant", "value": 1.0}}),
    ("solve", {"p": 2, "A": {"kind": "conformal"},
               "rhs": {"kind": "constant", "value": 1.0}}),
    ("solve", {"p": 2, "A": {"kind": "conformal", "value": 1.0},
               "rhs": {"kind": "constant", "value": -1.0}}),
    ("pseudo-check", "--size", "4"),
    ("pseudo-check", "--p", "3"),
    ("pseudo-check", "--delta1", "-1"),
    ("pseudo-check", "--delta1", "nan"),
    # one node of the stored right side is 0
    ("solve", {"p": 2, "A": {"kind": "conformal", "value": 1.0},
               "rhs": {"kind": "stored",
                       "values": [[1.0] * 16] * 15 + [[1.0] * 15 + [0.0]]}}),
    ("solve", {"p": 2, "A": {"kind": "stored", "values": [[1.0, 0.0, 1.0]]},
               "rhs": {"kind": "constant", "value": 1.0}}),
    ("solve", {"p": 2, "A": {"kind": "conformal", "value": 1.0},
               "rhs": {"kind": "paper_example", "param": 0.0, "t_coeff": 0.5}}),
    ("solve", {"p": 2, "A": {"kind": "paper_example", "param": [[0.1] * 3] * 3},
               "rhs": {"kind": "constant", "value": 1.0}}),
    ("solve", None),
    # an infinite node would reach the Krylov solve as a non-finite residual
    ("solve", {"p": 2, "A": {"kind": "conformal", "value": 1.0},
               "rhs": {"kind": "stored",
                       "values": [[1.0] * 16] * 15 + [[1.0] * 15 + [float("inf")]]}}),
    # a NaN coefficient A: numpy's eigvalsh returns zeros for a NaN matrix
    ("solve", {"p": 2, "A": {"kind": "conformal", "value": float("nan")},
               "rhs": {"kind": "constant", "value": 1.0}}),
    ("solve", {"p": 2, "A": {"kind": "paper_example", "param": float("nan")},
               "rhs": {"kind": "constant", "value": 1.0}}),
    ("solve", {"p": 2, "A": {"kind": "stored", "values": np.where(
                   np.arange(16 * 16 * 4).reshape(16, 16, 2, 2) == 5, np.nan,
                   np.eye(2)).tolist()},
               "rhs": {"kind": "constant", "value": 1.0}}),
    # e^{t_coeff u} at u = 0 would reach the Krylov solve as nan
    ("solve", {"p": 2, "A": {"kind": "conformal", "value": 1.0},
               "rhs": {"kind": "paper_example", "param": 0.3, "t_coeff": float("inf")}}),
    # a kind from the other side of the catalog
    ("solve", {"p": 2, "A": {"kind": "conformal", "value": 1.0},
               "rhs": {"kind": "zero"}}),
    ("solve", {"p": 2, "A": {"kind": "conformal", "value": 1.0},
               "rhs": {"kind": "conformal", "value": 1.0}}),
    ("solve", {"p": 2, "A": {"kind": "constant", "value": 1.0},
               "rhs": {"kind": "constant", "value": 1.0}}),
    # p is a JSON integer and value a JSON number: neither is truncated,
    # read from a bool or parsed from a string
    ("solve", {"p": 2.9, "A": {"kind": "conformal", "value": 1.0},
               "rhs": {"kind": "constant", "value": 1.0}}),
    ("solve", {"p": True, "A": {"kind": "conformal", "value": 1.0},
               "rhs": {"kind": "constant", "value": 1.0}}),
    ("solve", {"p": "2", "A": {"kind": "conformal", "value": 1.0},
               "rhs": {"kind": "constant", "value": 1.0}}),
    ("solve", {"p": 2, "A": {"kind": "conformal", "value": "1.5"},
               "rhs": {"kind": "constant", "value": 1.0}}),
    ("solve", {"p": 2, "A": {"kind": "conformal", "value": 1.0},
               "rhs": {"kind": "constant", "value": True}}),
    # lengths must be positive and finite
    ("subsolution", "--radius", "nan"),
    ("subsolution", "--radius", "inf"),
    ("alexandrov", "--d", "nan"),
    ("alexandrov", "--d", "inf"),
    # an unknown key, and param or values that are not JSON numbers
    ("solve", {"p": 2, "A": {"kind": "conformal", "value": 1.0},
               "rhs": {"kind": "paper_example", "param": 0.3, "t_coef": 0.5}}),
    ("solve", {"p": 2, "A": {"kind": "conformal", "value": 1.0},
               "rhs": {"kind": "constant", "value": 1.0}, "q": 1}),
    ("solve", {"p": 2, "A": {"kind": "conformal", "value": 1.0},
               "rhs": {"kind": "paper_example", "param": "0.3"}}),
    ("solve", {"p": 2, "A": {"kind": "paper_example", "param": True},
               "rhs": {"kind": "constant", "value": 1.0}}),
])
def test_bad_grid_input_is_usage_error(tmp_path, argv):
    # a dict is a problem JSON and None a problem path that does not exist,
    # either solved from a zero 16^2 initial grid
    if len(argv) == 2 and not isinstance(argv[1], str):
        problem, initial = tmp_path / "problem.json", tmp_path / "u0.csv"
        if argv[1] is not None:
            problem.write_text(json.dumps(argv[1]))
        grid = TorusGrid((16, 16))
        save_grid_csv(initial, GridFn(grid, np.zeros(grid.sizes)))
        argv = (argv[0], "--problem", str(problem), "--initial", str(initial))
    proc, out = run_subprocess(tmp_path, *argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"{argv[0]}: ")
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(out)
    if "--problem" in argv and not os.path.exists(argv[2]):
        assert argv[2] in proc.stderr


@pytest.mark.parametrize("subcommand", ["subsolution", "alexandrov"])
def test_grid_defaults_are_not_usage_errors(tmp_path, subcommand):
    # alexandrov still exits 1 at its defaults: its nodal contact-set sum
    # undercounts the disc at 65^2, a quadrature fault, not bad input
    proc, out = run_subprocess(tmp_path, subcommand)
    assert proc.returncode in (0, 1), proc.stderr
    assert proc.stderr == ""
    assert os.path.exists(out)


@pytest.mark.parametrize("subcommand", [
    "identities", "cone", "spectral-derivs", "concavity-fuzz", "find-m",
    "key-lemma", "solve",
])
def test_negative_seed_is_usage_error(tmp_path, subcommand):
    proc, out = run_subprocess(tmp_path, subcommand, "--seed", "-1")
    assert proc.returncode == 2, proc.stderr
    assert "--seed" in proc.stderr and "non-negative" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(out)


def test_spectral_derivs_clean(tmp_path):
    status, rep = run(
        tmp_path, "sd.json", "spectral-derivs", "--n", "4", "--p", "2",
        "--trials", "20", "--seed", "2",
    )
    assert status == 0
    assert rep["results"]["max_gradient_error"] <= 1e-6


def test_spectral_derivs_checks_a_trial_outside_the_cone(tmp_path):
    # the one draw has sigma_2 < 0; the gradient formula holds there too, so
    # it is checked, not skipped with an error of 0
    status, rep = run(
        tmp_path, "sd.json", "spectral-derivs", "--n", "2", "--p", "2",
        "--trials", "1", "--seed", "0",
    )
    assert status == 0
    assert 0 < rep["results"]["max_gradient_error"] <= 1e-6


def test_concavity_fuzz_guaranteed_mode(tmp_path):
    status, rep = run(
        tmp_path, "cf.json", "concavity-fuzz", "--mode", "large_mu1",
        "--n", "3", "--a", "1.5", "--trials", "300", "--seed", "3",
    )
    assert status == 0
    assert rep["results"]["guaranteed_regime"] is True
    assert rep["results"]["min_residual"] >= -1e-9
    assert rep["results"]["undetermined"] == 0 and rep["violation"] is None


@pytest.mark.parametrize("extra", [
    ("--n", "3", "--a", "0.5"),              # a <= beta = 1
    ("--n", "3", "--a", "1.5", "--eps", "-1"),
    ("--n", "2", "--a", "0.5"),
    ("--n", "3", "--a", "1.5", "--tau", "2"),
    ("--n", "3", "--a", "1.5", "--trials", "0"),
])
def test_concavity_fuzz_bad_large_mode_input_is_usage_error(tmp_path, extra):
    proc, out = run_subprocess(
        tmp_path, "concavity-fuzz", "--mode", "large_mu1", *extra
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("concavity-fuzz: ")
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv", [
    ("--mode", "theorem", "--tau", "0.9"),
    ("--mode", "theorem"),                           # default tau 0
    ("--mode", "theorem", "--n", "1", "--tau", "0.25"),
    ("--mode", "theorem", "--tau", "0.25", "--eps", "0"),
    ("--mode", "small_mu1", "--p", "9"),
    ("--mode", "small_mu1", "--p", "2", "--tau", "0.75"),
    ("--mode", "small_mu1", "--p", "0", "--tau", "0.25"),
    # a negative shift leaves the cone (and the sorted order) the
    # inequality is stated on
    ("--mode", "theorem", "--n", "4", "--tau", "0.3", "--mu-n-min", "-100",
     "--trials", "50", "--seed", "1"),
    ("--mode", "theorem", "--tau", "0.3", "--mu-n-min", "nan"),
    # large_mu1 draws its own mu_n
    ("--mode", "large_mu1", "--n", "5", "--a", "2.5", "--mu-n-min", "100"),
])
def test_concavity_fuzz_bad_exploratory_input_is_usage_error(tmp_path, argv):
    proc, out = run_subprocess(tmp_path, "concavity-fuzz", *argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("concavity-fuzz: ")
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(out)


def test_concavity_fuzz_exploratory_mode_never_fails(tmp_path):
    status, rep = run(
        tmp_path, "cfe.json", "concavity-fuzz", "--mode", "theorem",
        "--n", "3", "--tau", "0.25", "--trials", "200", "--seed", "4",
    )
    assert status == 0
    assert rep["results"]["guaranteed_regime"] is False


def test_find_m(tmp_path):
    status, rep = run(
        tmp_path, "fm.json", "find-m", "--n", "3", "--p", "2", "--tau", "0.5",
        "--sigma", "0.5:2", "--trials", "200", "--seed", "42",
    )
    assert status == 0
    assert np.isfinite(rep["results"]["M_hat"])
    assert rep["results"]["worst_residual"] >= -1e-10
    history = rep["results"]["history"]
    assert [M for M, _, _, _ in history] == [1e6, 1.0]
    assert history[-1][:2] == [rep["results"]["M_hat"], rep["results"]["worst_residual"]]
    assert [k for _, _, k, _ in history] == [200, 150]
    assert 0 < history[0][3] < 200 and history[1][3] == 0


def test_emit_refuses_nonfinite_numbers(tmp_path):
    out = os.path.join(tmp_path, "bad.json")
    with pytest.raises(ValueError):
        cli._emit({"results": {"worst": [1.0, np.inf]}}, out)
    assert not os.path.exists(out)


def test_subsolution(tmp_path):
    status, rep = run(
        tmp_path, "sub.json", "subsolution", "--n", "2", "--p", "2",
        "--resolution", "33",
    )
    assert status == 0
    assert rep["results"]["worst_slack"] >= 0
    assert rep["results"]["A"] > 0 and rep["results"]["B"] > 0


@pytest.mark.parametrize("phi", [
    "50",      # B |min u| is about 2500, so exp(-B min u) overflows
    "1e200",   # C1**p overflows
    "1e-300",  # B underflows to 0
])
def test_subsolution_overflow_is_construction_failure(tmp_path, phi):
    status, rep = run(
        tmp_path, "subo.json", "subsolution", "--n", "2", "--p", "2",
        "--resolution", "33", "--phi", phi,
    )
    assert status == 1
    assert rep["results"] == {}
    violation = rep["violation"]
    assert violation["kind"] == "construction_failure"
    assert violation["node"] is None
    assert "overflows" in violation["detail"]


def test_subsolution_minor_overflow_is_construction_failure(tmp_path):
    # A is about 1.4e214: v is finite in the ball, but sigma_3 of its
    # Hessians overflows; no verdict may rest on inf, and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, rep = run(
            tmp_path, "subm.json", "subsolution", "--n", "3", "--p", "3",
            "--resolution", "17", "--phi", "5",
        )
    assert status == 1
    assert rep["results"] == {}
    violation = rep["violation"]
    assert violation["kind"] == "construction_failure"
    assert "overflows" in violation["detail"]
    assert 0 <= violation["node"] < 17**3


def test_key_lemma(tmp_path):
    status, rep = run(
        tmp_path, "kl.json", "key-lemma", "--n", "3", "--p", "2",
        "--trials", "30", "--seed", "0",
    )
    assert status == 0
    assert rep["results"]["verified"] > 0
    assert rep["results"]["verified"] + rep["results"]["hypothesis_failed"] == 30
    assert (rep["results"]["first_failure"] is None) == (
        rep["results"]["hypothesis_failed"] == 0
    )
    assert rep["results"]["min_slack"] >= -1e-9


def test_key_lemma_reports_first_failure(tmp_path):
    # R = 1 is far inside the level sets of these cases, so rays escape
    status, rep = run(
        tmp_path, "klf.json", "key-lemma", "--n", "3", "--p", "2",
        "--trials", "5", "--R", "1", "--directions", "50", "--seed", "0",
    )
    assert status == 0
    res = rep["results"]
    assert res["hypothesis_failed"] > 0
    first = res["first_failure"]
    assert set(first) == {"case", "direction", "norm"}
    assert 0 <= first["case"] < 5 and 0 <= first["direction"] < 50
    assert first["norm"] >= 1.0


def test_solve_manufactured(tmp_path):
    sol_path = os.path.join(tmp_path, "sol.csv")
    status, rep = run(
        tmp_path, "solve.json", "solve", "--manufactured", "32",
        "--seed", "5", "--solution", sol_path,
    )
    assert status == 0
    assert 0 < rep["results"]["iterations"] <= 12
    assert rep["results"]["final_residual"] <= 1e-9
    for rec in rep["results"]["trace"]:
        assert 0 < rec["krylov_iters"] <= 40
        assert rec["backtracks"] == 0
        assert 0.0 < rec["linear_residual"] <= 1e-8
        assert rec["admissibility_margin"] > 0.0
    sol = load_grid_csv(sol_path)
    assert sol.grid.sizes == (32, 32)


def test_solve_overflowing_start_is_admissibility_failure(tmp_path):
    # the minors of a start near 1e300 overflow: the start counts as
    # outside the cone, and nothing warns on the way
    proc, out = run_subprocess(
        tmp_path, "solve", "--manufactured", "32", "--perturb", "1e300"
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == ""
    with open(out) as fh:
        violation = json.load(fh)["violation"]
    assert violation["kind"] == "AdmissibilityError"
    assert "at node" in violation["detail"]


def test_solve_krylov_failure_exits_1(tmp_path, monkeypatch):
    real = solver.lgmres
    monkeypatch.setattr(
        solver, "lgmres",
        lambda *args, **kwargs: real(*args, **{**kwargs, "maxiter": 1, "inner_m": 1}),
    )
    status, rep = run(tmp_path, "solve.json", "solve", "--manufactured", "16")
    assert status == 1
    assert rep["violation"]["kind"] == "NonconvergenceError"
    assert "lgmres" in rep["violation"]["detail"]
    assert rep["violation"]["trace"] == []


def test_solve_u_dependent_problem_reports_raw_residual(tmp_path):
    # phi = 0.3 e^{u/2} (sin|du|^3 + 2) depends on u, so the solve is clean
    # only once the raw residual is below tol, at u = 2 ln(1/0.6)
    problem = os.path.join(tmp_path, "problem.json")
    save_problem_json(problem, EquationSpec(
        p=2, A_field=("conformal", 1.0), rhs=("paper_example", 0.3, 0.5)))
    grid = TorusGrid((16, 16))
    initial = os.path.join(tmp_path, "u0.csv")
    save_grid_csv(initial, GridFn(grid, np.zeros(grid.sizes)))
    sol_path = os.path.join(tmp_path, "sol.csv")
    status, rep = run(
        tmp_path, "solve.json", "solve", "--problem", problem,
        "--initial", initial, "--solution", sol_path,
    )
    assert status == 0
    assert rep["results"]["final_residual"] <= 1e-9
    assert rep["results"]["raw_residual"] <= 1e-9
    sol = load_grid_csv(sol_path)
    assert np.max(np.abs(sol.values - 2.0 * np.log(1.0 / 0.6))) <= 1e-9


def test_solve_reports_the_residual_of_its_solution(tmp_path):
    # from a perturbed start the residuals come from Newton's last
    # linearization, and from the solution itself, which already meets
    # tol, they are computed afresh; either way they are the saved
    # solution's, bit for bit
    spec, grid, ustar = manufactured_problem((16, 16), p=2)
    problem = os.path.join(tmp_path, "problem.json")
    save_problem_json(problem, spec)
    start = os.path.join(tmp_path, "u0.csv")
    save_grid_csv(start, GridFn(grid, 1.1 * ustar.values))
    sol_path = os.path.join(tmp_path, "sol.csv")
    iterations = []
    for name, initial in (("newton.json", start), ("converged.json", sol_path)):
        status, rep = run(
            tmp_path, name, "solve", "--problem", problem,
            "--initial", initial, "--solution", sol_path,
        )
        assert status == 0
        iterations.append(rep["results"]["iterations"])
        res = solver.residual_field(load_grid_csv(sol_path), spec).values
        assert rep["results"]["final_residual"] == solver.residual_norm(res, spec)
        assert rep["results"]["raw_residual"] == float(np.max(np.abs(res)))
    assert iterations[0] > 0 and iterations[1] == 0


def test_solve_requires_a_problem(tmp_path, capsys):
    assert main(["solve"]) == 2


def test_solve_rejects_malformed_initial_csv(tmp_path, capsys):
    spec, _, _ = manufactured_problem((16, 16))
    problem = os.path.join(tmp_path, "problem.json")
    save_problem_json(problem, spec)
    bad = os.path.join(tmp_path, "bad.csv")
    with open(bad, "w") as fh:
        fh.write("2,16,16,0.39269908169872414,0.39269908169872414\n1.0\n")
    assert main(["solve", "--problem", problem, "--initial", bad]) == 2
    assert "expected 256 values" in capsys.readouterr().err


def test_solve_rejects_zero_spacing_initial_csv(tmp_path, capsys):
    # spacings of 0 agree on a period of 0, which no grid has
    spec, _, _ = manufactured_problem((16, 16))
    problem = os.path.join(tmp_path, "problem.json")
    save_problem_json(problem, spec)
    bad = os.path.join(tmp_path, "bad.csv")
    with open(bad, "w") as fh:
        fh.write("2,16,16,0,0\n" + "0.0\n" * 256)
    assert main(["solve", "--problem", problem, "--initial", bad]) == 2
    assert "period must be positive and finite" in capsys.readouterr().err


def test_alexandrov(tmp_path):
    status, rep = run(
        tmp_path, "alex.json", "alexandrov", "--case", "quadratic",
        "--resolution", "65", "--eps", "0.9",
    )
    assert status == 0
    assert 0.9 <= rep["results"]["ratio"] <= 1.02


def test_pseudo_check_violation_exits_1(tmp_path):
    status, rep = run(
        tmp_path, "pc.json", "pseudo-check", "--size", "32",
        "--delta2", "0.5", "--M2", "0.1",
    )
    assert status == 1
    assert rep["violation"] is not None
    assert rep["results"]["super_violations"] > 0


def test_pseudo_check_clean(tmp_path):
    status, rep = run(
        tmp_path, "pc2.json", "pseudo-check", "--size", "32",
        "--delta2", "0.5", "--M2", "1.0",
    )
    assert status == 0
    assert rep["results"]["worst_super_slack"] == pytest.approx(0.75, abs=1e-12)


def test_import_skips_sparse_linalg(tmp_path):
    # nothing in phessian imports scipy, a Newton solve included
    out = os.path.join(tmp_path, "solve.json")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, phessian.cli; "
         "status = phessian.cli.main(sys.argv[1:]); "
         "print(status, 'scipy' in sys.modules)",
         "solve", "--manufactured", "16", "--output", out],
        env=src_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"


def test_solve_is_independent_of_blas_threads(tmp_path):
    # one solve with one and with two BLAS/OpenMP threads: the same report
    # apart from wall_time_s and the same solution file, byte for byte
    reports, solutions = [], []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        env = src_env()
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[key] = threads
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from phessian.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "solve", "--manufactured", "128", "--tol", "1e-12", "--seed", "0",
             "--solution", "solution.csv", "--output", "report.json"],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        text = (cwd / "report.json").read_text()
        reports.append([line for line in text.splitlines() if "wall_time_s" not in line])
        solutions.append((cwd / "solution.csv").read_bytes())
    assert reports[0] == reports[1]
    assert solutions[0] == solutions[1]


def test_plain_value_error_is_not_a_usage_error(tmp_path, monkeypatch):
    # only an InputError is rejected input; any other ValueError is a fault
    # of the program, and it must surface, not read as exit 2
    def fault(*args, **kwargs):
        raise ValueError("a fault of the computation")

    monkeypatch.setattr(cli, "key_lemma_sweep", fault)
    out = tmp_path / "kl.json"
    with pytest.raises(ValueError, match="fault of the computation"):
        main(["key-lemma", "--trials", "1", "--output", str(out)])
    assert not out.exists()


def test_main_reuses_its_parser(tmp_path, monkeypatch):
    # one parser per process: later calls parse with the first call's
    # parser and give the same reports, whatever ran in between
    builds, build_parser = [], cli.build_parser

    def build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", build)
    cli._parser.cache_clear()
    try:
        argv = ("key-lemma", "--n", "3", "--p", "2", "--trials", "5",
                "--directions", "200", "--seed", "3")
        first = run(tmp_path, "a.json", *argv)
        run(tmp_path, "c.json", "cone", "--n", "4", "--p", "3", "--trials", "20")
        second = run(tmp_path, "b.json", *argv)
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    assert first[0] == second[0] == 0
    assert strip_walltime(first[1]) == strip_walltime(second[1])


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_reports_are_deterministic(tmp_path):
    cases = [
        ("identities", "--n", "3..4", "--trials", "100", "--seed", "9"),
        ("find-m", "--n", "3", "--p", "2", "--tau", "0.25", "--trials", "100",
         "--seed", "9"),
        ("solve", "--manufactured", "32", "--seed", "9"),
        ("concavity-fuzz", "--mode", "large_mu1", "--n", "3", "--a", "1.2",
         "--trials", "100", "--seed", "9"),
    ]
    for i, case in enumerate(cases):
        _, rep1 = run(tmp_path, f"a{i}.json", *case)
        _, rep2 = run(tmp_path, f"b{i}.json", *case)
        assert strip_walltime(rep1) == strip_walltime(rep2), case[0]


def test_report_embeds_full_config(tmp_path):
    _, rep = run(
        tmp_path, "cfg.json", "cone", "--n", "3", "--p", "2", "--trials", "50",
        "--seed", "11",
    )
    assert rep["config"] == {
        "n": 3, "p": 2, "trials": 50, "seed": 11, "tol": 1e-10
    }
