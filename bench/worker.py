"""Run one workload's CLI commands in-process, repeatedly, and time them.

Started by run.py as a fresh interpreter:

    python3 bench/worker.py SPEC.json

SPEC names the source tree, the command lines, the output root, the
measuring time, a hard time budget and whether to trace.  Each
repetition runs every command once through ``niwclust.cli.main`` into
its own output directory.  Repetitions continue until the measuring
time has passed, unless the next one would overrun the budget.  With
tracing on, untraced and traced repetitions alternate, so the trace
overhead is measured in the same process.

The result, written as JSON to the path SPEC names, holds per-command
exit codes, captured stdout, warning counts and timings, the peak RSS
of this process and, when tracing, the per-layer numbers of one traced
repetition.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from time import perf_counter  # noqa: E402


def run_command(cli, argv):
    """One CLI invocation: (seconds, record)."""
    buf = io.StringIO()
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(buf):
            start = perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed operation, not a benchmark error
                code = -1
                error = traceback.format_exc(limit=5)
            seconds = perf_counter() - start
    return seconds, {
        "argv": argv,
        "exit": code,
        "stdout": buf.getvalue(),
        "error": error,
        "warnings": len(caught),
    }


def run_rep(cli, commands, outdir, traced):
    os.makedirs(outdir, exist_ok=True)
    wall = 0.0
    records = []
    for cmd in commands:
        seconds, rec = run_command(cli, list(cmd) + ["--outdir", outdir])
        wall += seconds
        records.append(rec)
    return {"outdir": outdir, "wall_s": wall, "traced": traced, "commands": records}


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy as np
    import niwclust.cli
    import niwclust.ratio
    import niwclust.sampler
    import tracing

    modules = {
        "niwclust.cli": niwclust.cli,
        "niwclust.ratio": niwclust.ratio,
        "niwclust.sampler": niwclust.sampler,
    }
    cli = niwclust.cli
    trace = bool(spec["trace"])
    reps = []
    layers = []
    start = perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        outdir = os.path.join(spec["outroot"], f"rep{len(reps)}")
        if traced:
            with tracing.Tracer(modules) as tracer:
                rep = run_rep(cli, spec["commands"], outdir, traced)
            written = sum(os.path.getsize(p) for p in tracer.written if os.path.exists(p))
            metrics, samples = tracing.layer_metrics(tracer, rep["wall_s"], written)
            # the spectral_norm wrapper records its own warnings
            metrics["cli.warnings"] = tracer.nonconverged + sum(
                c["warnings"] for c in rep["commands"])
            layers.append({"rep": len(reps), "metrics": metrics, "samples": samples})
            del tracer  # its spans are summarized; free them before the next rep
        else:
            rep = run_rep(cli, spec["commands"], outdir, traced)
        reps.append(rep)
        elapsed = perf_counter() - start
        # tracing wants two of each kind for a fair overhead ratio, but a
        # repetition that would overrun the budget is not started
        least = 2 if trace else 1
        enough = len(reps) >= (4 if trace else 1)
        if enough and elapsed >= spec["seconds"]:
            break
        if len(reps) >= least and elapsed + rep["wall_s"] > spec["budget"]:
            break

    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 2 has no dict mode
        pass
    result = {
        "reps": reps,
        "layers": layers,
        "max_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")
                 if k in blas},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
