"""Checks on the library source itself."""

import ast
import importlib
import os
import sys

import pytest

PACKAGE = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src", "phessian")
)
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


def test_package_modules_found():
    assert "solver.py" in MODULES and "cli.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_statements(module):
    # python -O strips assert, so library checks must raise explicitly
    path = os.path.join(PACKAGE, module)
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module}: assert at lines {lines}"


def test_library_imports_only_numpy_and_stdlib():
    # pyproject.toml declares numpy as the one dependency
    allowed = {"numpy", "__future__"} | set(sys.stdlib_module_names)
    found = []
    for module in MODULES:
        path = os.path.join(PACKAGE, module)
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{module}: {name}" for name in names
                      if name.split(".")[0] not in allowed]
    assert found == []


def test_linear_algebra_only_in_spectral():
    # the eigensolve, the Cholesky congruence and sigma_q of a matrix field
    # each live once, in spectral.py; elsewhere np.linalg serves norms only
    found = []
    for module in MODULES:
        if module == "spectral.py":
            continue
        path = os.path.join(PACKAGE, module)
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
                found.append(f"{module}:{node.lineno}: from {node.module}")
            elif (isinstance(node, ast.Attribute) and node.attr != "norm"
                  and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "linalg"):
                found.append(f"{module}:{node.lineno}: linalg.{node.attr}")
    assert found == []


def traced_functions():
    """(layer, function) pairs of the TRACED table in perfbench/tracer.py,
    read from its syntax tree: the file is neither imported nor run."""
    path = os.path.join(PACKAGE, os.pardir, os.pardir, "perfbench", "tracer.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [
                (layer.value, fn.value)
                for layer, funcs in zip(node.value.keys, node.value.values)
                for fn in funcs.keys
            ]
    raise AssertionError("perfbench/tracer.py defines no TRACED table")


def test_traced_functions_exist():
    # the benchmark's traced runs wrap these by name; a rename in the
    # package would otherwise surface only as a crashed traced run
    pairs = traced_functions()
    assert ("solver", "_linearization_data") in pairs
    missing = [
        f"phessian.{layer}.{fn}"
        for layer, fn in pairs
        if not callable(getattr(importlib.import_module(f"phessian.{layer}"), fn, None))
    ]
    assert missing == []


def cli_handlers():
    """(top-level function, caught type) for every except clause of cli.py,
    read from its syntax tree; a bare except catches the type ''."""
    path = os.path.join(PACKAGE, "cli.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    out = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler):
                caught = node.type
                for t in caught.elts if isinstance(caught, ast.Tuple) else [caught]:
                    out.append((getattr(top, "name", None), ast.unparse(t) if t else ""))
    return out


def test_cli_turns_input_errors_into_exit_2_in_one_place():
    # the decision "this error is the user's" is made by raising InputError;
    # a CLI handler that caught ValueError would make it a second time
    handlers = cli_handlers()
    assert [f for f, t in handlers if t == "InputError"] == ["_subcommand"]
    parsers = {"_parse_range", "_parse_band", "_seed"}
    assert [f for f, t in handlers if t == "ValueError" and f not in parsers] == []
    assert [f for f, t in handlers if t in ("", "Exception", "BaseException")] == []


def test_cli_turns_library_errors_into_reports_in_one_place():
    # a type from errors.py is caught by _subcommand alone: InputError as
    # exit 2, and each typed failure, through one table, as a violation
    cli = importlib.import_module("phessian.cli")
    errors = importlib.import_module("phessian.errors")
    library = {t for t in vars(errors).values()
               if isinstance(t, type) and t.__module__ == errors.__name__}
    catchers = []
    for f, t in cli_handlers():
        caught = eval(t, vars(cli)) if t else ()
        if library & set(caught if isinstance(caught, tuple) else (caught,)):
            catchers.append(f)
    assert set(catchers) == {"_subcommand"}
    assert set(cli.VIOLATIONS) == {
        errors.SearchFailureError, errors.ConstructionError, errors.NonconvergenceError,
        errors.AdmissibilityError, errors.VerificationError,
    }


def test_no_subcommand_fixes_a_tolerance_but_spectral_derivs():
    # every sampled check decides its rows by their derived rounding bounds
    # (cone.verdict); spectral-derivs' tol bounds a finite-difference
    # truncation error, not rounding
    path = os.path.join(PACKAGE, "cli.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    fixed = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_subcommand"):
            fixed[node.args[0].value] = {k.arg for k in node.keywords}
    assert {"identities", "cone", "key-lemma", "spectral-derivs"} <= set(fixed)
    assert [name for name, keys in fixed.items() if "tol" in keys] == ["spectral-derivs"]


def _uses(name):
    """(module, top-level definition) of every node naming name, as a
    call's function or an attribute, across the package."""
    found = []
    for module in MODULES:
        path = os.path.join(PACKAGE, module)
        with open(path) as fh:
            tree = ast.parse(fh.read(), filename=path)
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == name) or (
                        isinstance(node, ast.Attribute) and node.attr == name):
                    found.append((module, getattr(top, "name", None)))
    return found


def test_one_rounding_model():
    # every sampled verdict's bound is _Rounded's running error analysis,
    # whose sigma_q enter through _rounded; _rounding's coefficient is used
    # bare only where a bound is taken at |mu| in one sum (the identities,
    # the cone regions) or as the escape test's margin
    assert sorted(set(_uses("_rounding"))) == [
        ("cone.py", "_regions"), ("subsolution.py", "_rays_that_may_escape"),
        ("symfun.py", "_rounded"), ("symfun.py", "identity_residuals"),
    ]
    # eps is read once in symfun; spectral's eigenvalue bounds and the
    # solver's Arnoldi breakdown test read their own
    finfo = _uses("finfo")
    assert sorted(set(m for m, _ in finfo)) == ["solver.py", "spectral.py", "symfun.py"]
    assert [f for m, f in finfo if m == "symfun.py"] == [None]
