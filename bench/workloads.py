"""The benchmark's workloads: inputs, command lines and checks.

Each workload turns a seed into input files (written before anything is
timed) and a list of CLI commands, each paired with the check that its
outputs must pass.  The seed is passed to the CLI as --seed.  Why each
workload exists is recorded in BENCHMARK.json.
"""

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks


@dataclass
class Workload:
    name: str
    # (seed, input dir) -> (context for the checks, input paths)
    prepare: Callable
    # (seed, context) -> [(argv, check)]
    commands: Callable
    # (seed, context) -> reference values; computed once per run
    reference: Callable = field(default=lambda seed, ctx: None)


# ------------------------------------------------------ cluster_n400_p300

# Separation 10, not the sweep command's 20: under the robust prior at
# n=400, p=300 the one-cluster partition out-scores the true split by
# ~8,800 nats, so both are attractors.  At separation 20 the first sweep
# coalesces everything into one cluster for about 1 seed in 7, which
# makes both the k_mode/ARI check and the wall time bimodal across
# seeds; at separation 10 all 71 seeds tried reached the true split.
CLUSTER_N, CLUSTER_P, CLUSTER_SEP = 400, 300, 10.0


def two_cluster_mixture(seed, n, p, separation):
    """0.5 N(-s/2 1, I) + 0.5 N(+s/2 1, I): (data, labels in {1, 2})."""
    rng = np.random.default_rng(seed)
    comps = rng.integers(0, 2, size=n)
    offsets = np.array([-separation / 2.0, separation / 2.0])
    return rng.standard_normal((n, p)) + offsets[comps][:, None], comps + 1


def _prepare_cluster(seed, indir):
    data, labels = two_cluster_mixture(seed, CLUSTER_N, CLUSTER_P, CLUSTER_SEP)
    data_path = os.path.join(indir, "data.csv")
    truth_path = os.path.join(indir, "truth.csv")
    np.savetxt(data_path, data, fmt="%.17g", delimiter=",")
    np.savetxt(truth_path, labels, fmt="%d", header="label", comments="")
    ctx = {"n": CLUSTER_N, "sweeps": 200, "data": data_path, "truth": truth_path}
    return ctx, [data_path, truth_path]


def _cluster_commands(seed, ctx):
    argv = ["cluster", "--input", ctx["data"], "--truth", ctx["truth"],
            "--prior", "robust", "--seed", str(seed)]
    return [(argv, checks.check_cluster)]


# -------------------------------------------------------- sweep_n10_p2000

SWEEP = {"p_grid": (500, 2000), "replicates": 50, "sweeps": 120, "burnin": 40}


def _prepare_sweep(seed, indir):
    return dict(SWEEP), []


def _sweep_commands(seed, ctx):
    argv = ["sweep", "--p-grid", ",".join(map(str, SWEEP["p_grid"])),
            "--replicates", str(SWEEP["replicates"]), "--sweeps", str(SWEEP["sweeps"]),
            "--burnin", str(SWEEP["burnin"]), "--seed", str(seed)]
    return [(argv, checks.check_sweep)]


# ---------------------------------------------------------- analytic_p1e5

ANALYTIC = {"p_grid": (1000, 10000, 100000), "limits_reps": 20, "n1": 10, "n2": 10,
            "projector_reps": 100}


def _prepare_analytic(seed, indir):
    return dict(ANALYTIC), []


def _analytic_commands(seed, ctx):
    grid = ",".join(map(str, ANALYTIC["p_grid"]))
    limits = ["limits", "--p-grid", grid, "--replicates", str(ANALYTIC["limits_reps"]),
              "--n1", str(ANALYTIC["n1"]), "--n2", str(ANALYTIC["n2"]),
              "--seed", str(seed)]
    projector = ["projector", "--p-grid", grid, "--n1", str(ANALYTIC["n1"]),
                 "--replicates", str(ANALYTIC["projector_reps"]), "--seed", str(seed)]
    return [(limits, checks.check_limits), (projector, checks.check_projector)]


def _analytic_reference(seed, ctx):
    a = ANALYTIC
    return {
        "limits": checks.limits_reference(seed, a["p_grid"], a["limits_reps"],
                                          a["n1"], a["n2"]),
        "projector": checks.projector_reference(seed, a["p_grid"],
                                                a["projector_reps"], a["n1"]),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cluster_n400_p300",
            _prepare_cluster,
            _cluster_commands,
        ),
        Workload(
            "sweep_n10_p2000",
            _prepare_sweep,
            _sweep_commands,
        ),
        Workload(
            "analytic_p1e5",
            _prepare_analytic,
            _analytic_commands,
            _analytic_reference,
        ),
    )
}
