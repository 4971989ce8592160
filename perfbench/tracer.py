"""Outside-in tracing of phessian's layers for the benchmark's traced runs.

`install` wraps the public functions of each layer (plus the two solver
internals that delimit a Newton linearization and a Krylov solve) and swaps
every module-level binding of them inside the `phessian` package, in this
process only; no source file changes.  Each call records one span: name,
start, end, parent span, rows of its main argument, bytes of its array
arguments and results, and one scalar drawn from its return value.  Spans
stay in memory as flat typed arrays and are written out once at the end.

Byte counts are computed from array sizes (input plus output `nbytes`), not
measured: they ignore caches and temporaries.
"""

import array
import functools
import importlib
import sys
from time import perf_counter

import numpy as np


def _rows(x, trailing=1):
    """Vectors (or matrices, trailing=2) in a batch; 1 for a single one."""
    shape = np.shape(x)
    return int(np.prod(shape[: len(shape) - trailing]))


def _nbytes(*arrays):
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


def _eigh_bytes(args, ret):
    return _nbytes(args[0], *(ret if isinstance(ret, tuple) else (ret,)))


def _stencil_bytes(args, ret):
    return _nbytes(args[0], ret)


# layer -> {function: (span name, rows(args), bytes(args, ret), out(ret))}.
# lgmres is wrapped only where phessian.solver binds it, so Krylov spans are
# the Newton solver's own linear solves.
TRACED = {
    "symfun": {
        "sigma": ("symfun.sigma", lambda a: _rows(a[1]), None, None),
        "sigma_all": ("symfun.sigma_all", lambda a: _rows(a[0]), None, None),
        "sigma_trunc": ("symfun.sigma_trunc", lambda a: _rows(a[1]), None, None),
    },
    "cone": {
        "classify": ("cone.classify", None, None, None),
        "classify_batch": (
            "cone.classify_batch", lambda a: _rows(a[0]), None, None
        ),
        "cone_distance": ("cone.cone_distance", None, None, None),
        "sample_admissible": ("cone.sample_admissible", None, None, None),
        "maclaurin_report": ("cone.maclaurin_report", None, None, None),
        "tech_ineq_report": ("cone.tech_ineq_report", None, None, None),
    },
    "spectral": {
        "jacobi_eigh": (
            "spectral.jacobi_eigh", lambda a: _rows(a[0], 2), _eigh_bytes, None
        ),
    },
    "concavity": {
        "sample_hypothesis_points": (
            "concavity.sample_hypothesis_points", None, None,
            lambda ret: len(ret[0]),
        ),
        "residual_batch": ("concavity.residual_batch", None, None, None),
    },
    "subsolution": {
        "construct": ("subsolution.construct", None, None, None),
        "key_lemma_check": (
            "subsolution.key_lemma_check", None, None, lambda ret: bool(ret[2])
        ),
    },
    "solver": {
        "newton_solve": (
            "solver.newton_solve", None, None, lambda ret: len(ret[1])
        ),
        "_linearization_data": ("solver.linearize", None, None, None),
        "lgmres": ("solver.lgmres", None, None, None),
        "periodic_grad": (
            "solver.periodic_grad", lambda a: _rows(a[0], 0), _stencil_bytes,
            None,
        ),
        "periodic_hess": (
            "solver.periodic_hess", lambda a: _rows(a[0], 0), _stencil_bytes,
            None,
        ),
    },
    "cli": {
        "main": ("cli.main", None, None, None),
    },
}

# (span, ancestor span): calls and rows of `span` made while `ancestor` is
# open, e.g. stencils inside a Krylov solve are Jacobian matvecs.
NESTED = (
    ("solver.periodic_hess", "solver.lgmres"),
    ("cone.classify_batch", "subsolution.key_lemma_check"),
    ("cone.classify_batch", "concavity.sample_hypothesis_points"),
)


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.names = []
        self.name = array.array("H")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.rows = array.array("q")
        self.nbytes = array.array("q")
        self.out = array.array("d")
        self._open = [-1]

    def wrap(self, span, fn, rows=None, nbytes=None, out=None):
        sid = len(self.names)
        self.names.append(span)
        stack = self._open
        name, parent, start, end = self.name, self.parent, self.start, self.end
        nrows, nbytes_col, out_col = self.rows, self.nbytes, self.out

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # append the row on entry so nested calls can name it as parent
            i = len(name)
            name.append(sid)
            parent.append(stack[-1])
            nrows.append(rows(args) if rows else 0)
            nbytes_col.append(0)
            out_col.append(0.0)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                ret = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if nbytes:
                nbytes_col[i] = nbytes(args, ret)
            if out:
                out_col[i] = out(ret)
            return ret

        return traced

    def install(self):
        """Wrap every function in TRACED and rebind it across phessian."""
        importlib.import_module("phessian.cli")
        modules = [m for k, m in sys.modules.items()
                   if k == "phessian" or k.startswith("phessian.")]
        for layer, funcs in TRACED.items():
            home = importlib.import_module(f"phessian.{layer}")
            for fname, (span, rows, nbytes, out) in funcs.items():
                orig = getattr(home, fname)
                wrapped = self.wrap(span, orig, rows, nbytes, out)
                if fname == "lgmres":
                    setattr(home, fname, wrapped)
                    continue
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapped)

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
            "rows": np.frombuffer(self.rows, dtype=np.int64),
            "nbytes": np.frombuffer(self.nbytes, dtype=np.int64),
            "out": np.frombuffer(self.out),
        }

    def save(self, path, run_id):
        np.savez_compressed(path, names=np.array(self.names), run_id=run_id,
                            **self.arrays())

    def summary(self):
        """Per-span-name sums: calls, rows, self time, bytes, out; plus
        the NESTED counts.  Self time is a span's duration minus the
        durations of its direct children."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        k = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))

        def per_name(weights=None):
            sums = np.bincount(name, weights=weights, minlength=k)
            return {n: float(v) for n, v in zip(self.names, sums)}

        out = {
            "calls": per_name(),
            "rows": per_name(a["rows"]),
            "self_s": per_name(dur - child),
            "bytes": per_name(a["nbytes"]),
            "out": per_name(a["out"]),
            "nested_calls": {},
            "nested_rows": {},
        }
        for span, ancestor in NESTED:
            sel = (name == self.names.index(span)) & self._under(
                name, parent, self.names.index(ancestor))
            key = f"{span}@{ancestor}"
            out["nested_calls"][key] = float(np.count_nonzero(sel))
            out["nested_rows"][key] = float(np.sum(a["rows"][sel]))
        return out

    @staticmethod
    def _under(name, parent, ancestor_id):
        found = np.zeros(len(name), dtype=bool)
        cur = parent.copy()
        while np.any(cur >= 0):
            live = cur >= 0
            found[live] |= name[cur[live]] == ancestor_id
            cur[live] = parent[cur[live]]
        return found
