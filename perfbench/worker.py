"""Run one round of phessian CLI invocations in this fresh process.

    python3 perfbench/worker.py SPAWNED_AT RESULT_JSON TRACE SPANS_NPZ RUN_ID ARGVS_JSON

SPAWNED_AT is the parent's time.monotonic() just before it started this
process (the clock is system-wide), so set-up time covers interpreter start
and the imports of scipy and phessian.cli.  ARGVS_JSON is a list of argv
lists, run one after another through cli.main; an empty list only imports.
TRACE=1 installs the layer tracer first and saves its spans to SPANS_NPZ.
The result JSON holds set-up time, each call's exit code or exception with
the wall and CPU time of its cli.main, and the peak RSS of this process.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main():
    _, spawned_at, result_path, trace, spans_path, run_id, argvs = sys.argv
    # the imports are part of the measured set-up, so they happen here
    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]
    import scipy.sparse.linalg  # noqa: F401
    from phessian import cli

    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"phessian was imported from {cli.__file__}, not {SRC}")
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result = {"setup_s": time.monotonic() - float(spawned_at), "calls": []}
    for argv in json.loads(argvs):
        call = {}
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            call["exit"] = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a malformed argv
            call["exit"] = exc.code
        except Exception:  # a crash is a failed invocation, not a harness error
            call["exception"] = traceback.format_exc()
        call["wall_s"] = time.perf_counter() - t0
        call["cpu_s"] = cpu_seconds() - cpu0
        result["calls"].append(call)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        result["layers"] = tracer.summary()
        tracer.save(spans_path, run_id)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
