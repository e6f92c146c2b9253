"""niwclust benchmark: end-to-end CLI runs and a traced per-layer run.

Usage, from the repository root:

    python3 bench/run.py --workload cluster_n400_p300 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json
(wall_s, peak_rss_mb, setup_s); --trace 1 reports its per-layer metrics
from a traced run.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The line before
it is a JSON record of the run: machine, versions, seed, input sizes,
every repetition's timing, quality numbers (fail_frac, ari_median,
max_rel_err) and the sha256 of every output file.  The record is also
written to .bench_results/.  --workload all runs every workload and
prints one line per metric instead.

Each CLI command runs in-process in a fresh worker interpreter
(bench/worker.py) with BLAS pinned to one thread; repetitions continue
until --seconds have passed and the median repetition is reported.
Only the standard library and numpy are used.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
RUN_TIMEOUT_S = 150.0
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import niwclust.cli; print(time.perf_counter() - t)"
)
QUALITY_UNITS = {"fail_frac": "frac", "ari_median": "ARI", "max_rel_err": "rel",
                 "limits_rel_err": "rel", "projector_rel_err": "rel"}


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def measure_setup(repeats=SETUP_REPEATS):
    """Median time to import niwclust.cli in a fresh interpreter.

    One unmeasured import first writes the bytecode cache.
    """
    times = []
    for i in range(repeats + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def machine_record():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def sha256_outputs(path):
    """{file name: sha256} of the CSV/SVG files in one output directory."""
    out = {}
    for name in sorted(os.listdir(path)):
        if name.endswith((".csv", ".svg")):
            with open(os.path.join(path, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_worker(spec, workdir, timeout):
    """(worker result or None, tail of its stderr)."""
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), spec_path],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return None, f"worker exceeded {timeout:.0f} s"
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        return None, proc.stderr[-4000:]
    with open(spec["result"]) as fh:
        return json.load(fh), proc.stderr[-4000:]


def check_reps(commands, reps, ctx, stderr):
    """Check every command of every repetition.

    Returns (attempted, failed, problems, quality lists, output hashes).
    """
    attempted = failed = 0
    problems = []
    quality = {}
    hashes = {}
    for rep in reps:
        for (argv, check), rec in zip(commands, rep["commands"]):
            attempted += 1
            if rec["exit"] != 0:
                failed += 1
                problems.append(f"{argv[0]} exited {rec['exit']}: "
                                f"{rec['error'] or stderr[-500:]}")
                continue
            found, q = check(rep["outdir"], rec["stdout"], ctx)
            if found:
                failed += 1
                problems.extend(f"{argv[0]}: {p}" for p in found)
            for key, val in q.items():
                quality.setdefault(key, []).append(val)
        rep_hashes = sha256_outputs(rep["outdir"])
        if not hashes:
            hashes = rep_hashes
        elif rep_hashes != hashes:
            hashes["differ_between_reps"] = True
    return attempted, failed, problems, quality, hashes


def summarize_quality(attempted, failed, quality):
    q = {"fail_frac": failed / attempted}
    if "ari_median" in quality:
        q["ari_median"] = statistics.median(quality["ari_median"])
    if "limits_rel_err" in quality:
        q["limits_rel_err"] = max(quality["limits_rel_err"])
        q["projector_rel_err"] = max(quality["projector_rel_err"])
        q["max_rel_err"] = max(q["limits_rel_err"], q["projector_rel_err"])
    return q


def end_to_end_metrics(result, setup_s):
    untraced = [r["wall_s"] for r in result["reps"] if not r["traced"]]
    return {
        "wall_s": statistics.median(untraced),
        "peak_rss_mb": result["max_rss_kb"] / 1024.0,
        "setup_s": setup_s,
    }


def per_layer_metrics(result, quality):
    """Layer numbers of the traced repetition with the median wall time."""
    layers = sorted(result["layers"], key=lambda lay: lay["metrics"]["trace.wall_s"])
    metrics = dict(layers[(len(layers) - 1) // 2]["metrics"])
    untraced = statistics.median(r["wall_s"] for r in result["reps"] if not r["traced"])
    traced = statistics.median(r["wall_s"] for r in result["reps"] if r["traced"])
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace_overhead_frac"] = traced / untraced - 1.0
    # accuracy of the two ratio-layer outputs the benchmark recomputes;
    # 0 on workloads that never call them
    metrics["ratio.merge_log_ratio.max_rel_err"] = quality.get("limits_rel_err", 0.0)
    metrics["ratio.projector_residual.max_rel_err"] = quality.get("projector_rel_err", 0.0)
    return metrics


def run_workload(name, seed, seconds, trace, bench_spec):
    started = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK)
    try:
        return _run_in(WORKLOADS[name], seed, seconds, trace, bench_spec, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_in(wl, seed, seconds, trace, bench_spec, workdir, started):
    setup_s, setup_samples = measure_setup() if not trace else (None, [])
    indir = os.path.join(workdir, "inputs")
    os.makedirs(indir)
    ctx, inputs = wl.prepare(seed, indir)
    commands = wl.commands(seed, ctx)
    spec = {
        "src": str(SRC),
        "commands": [argv for argv, _ in commands],
        "outroot": os.path.join(workdir, "out"),
        "seconds": seconds,
        "trace": int(trace),
        "result": os.path.join(workdir, "result.json"),
    }
    timeout = max(10.0, RUN_TIMEOUT_S - (time.perf_counter() - started))
    spec["budget"] = timeout - 30.0  # leaves time for the checks after it
    result, stderr = run_worker(spec, workdir, timeout)

    metrics = {}
    if result is None:
        attempted, failed = len(commands), len(commands)
        problems, quality, hashes = [f"worker failed: {stderr}"], {}, {}
    else:
        ctx["reference"] = wl.reference(seed, ctx)
        attempted, failed, problems, quality, hashes = check_reps(
            commands, result["reps"], ctx, stderr)
    q = summarize_quality(attempted, failed, quality)
    if result is not None:
        metrics = (per_layer_metrics(result, q) if trace
                   else end_to_end_metrics(result, setup_s))

    declared = bench_spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                           "BENCHMARK.json")
    why = {w["name"]: w["why"] for w in bench_spec["workloads"]}
    record = {
        "workload": wl.name,
        "why": why.get(wl.name),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_record(),
        "blas": result.get("blas") if result else None,
        "worker_threads": result.get("threads") if result else None,
        "inputs": {os.path.basename(p): os.path.getsize(p) for p in inputs},
        "commands": [argv for argv, _ in commands],
        "setup_samples_s": setup_samples,
        "rep_wall_s": [r["wall_s"] for r in result["reps"]] if result else [],
        "rep_traced": [r["traced"] for r in result["reps"]] if result else [],
        "rep_warnings": ([sum(c["warnings"] for c in r["commands"]) for r in result["reps"]]
                         if result else []),
        "quality": q,
        "samples": result["layers"][0]["samples"] if result and result["layers"] else {},
        "outputs_sha256": hashes,
        "problems": problems[:50],
        "elapsed_s": time.perf_counter() - started,
    }
    final = {
        "correct": bool(metrics) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    }
    return record, final


def emit(record, final):
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(path, "w") as fh:
        json.dump({"record": record, "result": final}, fh, indent=1)
    print(json.dumps({"record": record}))
    print(json.dumps(final))


def print_table(name, record, final):
    """One line per metric: workload, name, value, unit."""
    rows = [(k, m["value"], m["unit"]) for k, m in final["metrics"].items()]
    rows += [(k, v, QUALITY_UNITS[k]) for k, v in record["quality"].items()]
    for key, value, unit in rows:
        print(f"{name:18s} {key:42s} {value:14.6g} {unit}")
    for problem in record["problems"][:5]:
        print(f"{name:18s} problem: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "niwclust" / "cli.py").is_file():
        print(f"no niwclust source tree at {SRC}", file=sys.stderr)
        return 2
    bench_spec = load_spec()
    if args.seconds is None:
        args.seconds = bench_spec["run_seconds"]

    if args.workload != "all":
        emit(*run_workload(args.workload, args.seed, args.seconds, args.trace, bench_spec))
        return 0
    ok = True
    for name in WORKLOADS:
        record, final = run_workload(name, args.seed, args.seconds, args.trace, bench_spec)
        print_table(name, record, final)
        ok = ok and final["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
