"""Batch command-line front end.

Four experiment drivers plus a replot utility, one entry each in
``_COMMANDS``, which builds the subparsers and dispatches:

  limits     exact merge-ratio terms vs their analytic limits over a p grid
  cluster    run the collapsed Gibbs sampler on a CSV dataset
  sweep      chains from singletons under the robust vs naive prior across p
  projector  Woodbury projector residual medians over a p grid
  replot     regenerate the SVG for an existing output CSV

The parsed argparse namespace is the run configuration and holds every
field of the metadata line.  Each command takes only the options its
outputs depend on, listed in ``_COMMANDS``; the namespace holds the
others at their defaults, and argparse rejects them as usage errors.
Every output CSV starts with a metadata comment line (version, full
config, seed, generator name) and every SVG is a pure function of its
CSV, so replot reproduces plots byte-identically.  Exit codes: 0 ok,
2 config or usage error, 3 numeric failure, 4 I/O failure.

limits and projector run their replicates on a thread pool: numpy
releases the GIL while it fills and reduces their large arrays.  sweep
runs its chains on a pool of forked processes: a short chain is Python
bytecode that holds the GIL, so threads would only take turns.  Both
pools have one worker per usable CPU and return results in task order,
so the outputs are byte-identical at any CPU count.
"""

import argparse
import math
import os
import sys
from functools import partial

import numpy as np

from . import __version__
from .datagen import RNG_NAME, GenSpec, generate
from .errors import (
    ConstantRow,
    DomainError,
    EmptyTable,
    InvalidConfig,
    InvalidSpec,
    NotPositiveDefinite,
    ParseError,
    RaggedRows,
)
from .io import CsvTable, read_csv, write_csv
from .niw import NiwPrior, RobustPriorSpec, robust_prior
from .partition import CrpPrior, Partition, adjusted_rand_index
from .ratio import (
    analytic_limits,
    det_kappa_term_log,
    projector_residual,
    standardized_merge_log_ratio,
)
from .sampler import PosteriorSummary, run_chain
from .svg import line_plot

__all__ = ["main"]

_LIMIT_COLUMNS = (
    "p",
    "replicate",
    "term_gamma",
    "term_kappa",
    "term_det_kappa",
    "term_det_gram",
    "total",
    "gamma_limit",
    "kappa_limit",
    "det_kappa_limit",
    "total_limit",
)

_SWEEP_COLUMNS = (
    "p",
    "prior_naive",
    "chain",
    "frac_k1",
    "frac_kn",
    "degenerate_frac",
    "k_mode",
    "median_ari",
)

# Per-coordinate mean offset for the dichotomy demo.  Wide enough that
# coalescence from singletons reliably finds the true two-cluster split
# at p ~ 2000 under the robust prior; the naive prior collapses anyway.
_SWEEP_SEPARATION = 20.0


def _validate(cfg: argparse.Namespace) -> None:
    """Reject a bad configuration; parses cfg.p_grid into a tuple.  An
    option the command does not take holds a default that passes every
    check but the p grid's and the input's."""
    takes = _COMMANDS[cfg.command][2].split()
    cfg.p_grid = _parse_grid(cfg.p_grid)
    if "p-grid" in takes:
        if not cfg.p_grid:
            raise InvalidConfig("p_grid must not be empty")
        if any(b <= a for a, b in zip(cfg.p_grid, cfg.p_grid[1:])):
            raise InvalidConfig("p_grid must be strictly increasing")
        if cfg.p_grid[0] < 2:
            raise InvalidConfig("p_grid entries must be >= 2")
    if cfg.replicates < 1:
        raise InvalidConfig("replicates must be >= 1")
    if cfg.n1 < 1 or cfg.n2 < 1:
        raise InvalidConfig("n1 and n2 must be >= 1")
    if not 0 < cfg.alpha < np.inf:
        raise InvalidConfig(f"alpha must be positive and finite, got {cfg.alpha}")
    if cfg.seed < 0:
        raise InvalidConfig(f"seed must be >= 0, got {cfg.seed}")
    # every command that builds a robust prior runs with prior == robust
    if cfg.prior == "robust" and not 1 < cfg.c2 < np.inf:
        raise InvalidConfig(f"robust prior needs c2 > 1 and finite, got {cfg.c2}")
    if cfg.prior == "robust" and not 0 < cfg.c1 < np.inf:
        raise InvalidConfig(f"robust prior needs c1 > 0 and finite, got {cfg.c1}")
    if cfg.prior not in ("robust", "naive") and not cfg.prior.startswith("custom:"):
        raise InvalidConfig(f"unknown prior {cfg.prior!r}")
    if cfg.burnin < 0 or cfg.sweeps <= cfg.burnin:
        raise InvalidConfig("need sweeps > burnin >= 0")
    if "input" in takes and not cfg.input:
        raise InvalidConfig(f"{cfg.command} requires --input")


def _parse_grid(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise InvalidConfig(f"bad p_grid {text!r}") from None


def _metadata(cfg: argparse.Namespace) -> str:
    grid = ",".join(str(p) for p in cfg.p_grid)
    return (
        f"niwclust {__version__} | command={cfg.command} p_grid={grid} "
        f"c1={cfg.c1:g} c2={cfg.c2:g} alpha={cfg.alpha:g} "
        f"n1={cfg.n1} n2={cfg.n2} replicates={cfg.replicates} "
        f"sweeps={cfg.sweeps} burnin={cfg.burnin} seed={cfg.seed} "
        f"prior={cfg.prior} input={cfg.input or '-'} "
        f"truth={cfg.truth or '-'} | rng={RNG_NAME}"
    )


def _derived_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _resolve_prior(cfg: argparse.Namespace, kind: str, p: int) -> NiwPrior:
    """The prior named by kind (robust, naive or custom:FILE) at dimension p."""
    if kind == "robust":
        return robust_prior(p, RobustPriorSpec(cfg.c1, cfg.c2))
    if kind == "naive":
        return NiwPrior(np.zeros(p), 1.0, float(p + 2), 1.0)
    path = kind[len("custom:") :]
    keys = {"mu0": 0.0, "kappa0": 1.0, "nu0": float(p + 2), "lambda0_scale": 1.0}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"prior file {path} is not UTF-8: {exc.reason}") from None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfig(f"bad prior line {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise InvalidConfig(f"unknown prior key {key!r}")
        try:
            keys[key] = float(value)
        except ValueError:
            raise InvalidConfig(
                f"prior key {key!r}: cannot parse {value.strip()!r}"
            ) from None
    return NiwPrior(
        np.full(p, keys["mu0"]),
        keys["kappa0"],
        keys["nu0"],
        keys["lambda0_scale"],
    )


def _median(values) -> float:
    """np.median of a nonempty 1-d sequence, bit for bit: the middle value,
    or (a + b) / 2 of the two middle ones, and NaN if any value is NaN.
    np.median's first call imports numpy.ma, which takes longer than
    most commands' own median work."""
    xs = [float(v) for v in values]
    if any(v != v for v in xs):
        return math.nan
    xs.sort()
    k = len(xs) // 2
    return xs[k] if len(xs) % 2 else (xs[k - 1] + xs[k]) / 2


def _medians_by_p(table: CsvTable, value_col: str):
    cols = {name: i for i, name in enumerate(table.names)}
    ps = table.values[:, cols["p"]]
    vs = table.values[:, cols[value_col]]
    grid = np.array(sorted(set(ps.tolist())))
    return grid, np.array([_median(vs[ps == p]) for p in grid])


def _median_ari(summary: PosteriorSummary, truth: Partition) -> float:
    """Median ARI against truth over the kept post-burnin sweeps."""
    trace = summary.label_trace
    score = {lab: adjusted_rand_index(lab, truth) for lab in set(trace)}
    return _median([score[lab] for lab in trace])


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _replicate_pool(replicates: int):
    """A thread pool for the replicates of one command, one per usable CPU.

    Each replicate draws from its own seeded stream and numpy fills and
    reduces large arrays without holding the GIL, so the replicates of
    limits and projector overlap; pool.map returns them in replicate
    order, which keeps every output byte-identical to a serial run.
    A limits replicate scores its draw in place and a projector
    replicate reads it, so a worker holds one n x p block at a time;
    its finite check scans it a row block at a time.  sweep's chains
    hold the GIL and run on processes (see cmd_sweep).
    """
    # imported here: at module level it adds about 5% to CLI start-up
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=min(replicates, _usable_cpus()))


def _write_outputs(cfg: argparse.Namespace, name: str, rows) -> None:
    """Write NAME.csv, then draw NAME.svg from the CSV as read back."""
    columns, plot = _OUTPUTS[name]
    path = os.path.join(cfg.outdir, f"{name}.csv")
    write_csv(path, rows, names=columns, metadata=_metadata(cfg))
    _write_svg(os.path.join(cfg.outdir, f"{name}.svg"), plot(read_csv(path)))


def _write_svg(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------- limits


def cmd_limits(cfg: argparse.Namespace) -> None:
    spec = RobustPriorSpec(cfg.c1, cfg.c2)
    limits = analytic_limits(spec, cfg.n1, cfg.n2)
    crp = CrpPrior(cfg.alpha)
    consts = [limits.gamma_limit, limits.kappa_limit, limits.det_kappa_limit,
              limits.total_limit]

    def replicate(gi, prior, rep):
        # the draw is scored in place: one n x p block per worker
        rng = np.random.default_rng([cfg.seed, gi, rep])
        y = rng.standard_normal((cfg.n1 + cfg.n2, prior.p))
        return standardized_merge_log_ratio(y, cfg.n1, prior, crp)

    rows = []
    with _replicate_pool(cfg.replicates) as pool:
        for gi, p in enumerate(cfg.p_grid):
            prior = robust_prior(p, spec)
            brs = list(pool.map(partial(replicate, gi, prior), range(cfg.replicates)))
            rows += [[p, rep, br.term_gamma, br.term_kappa, br.term_det_kappa,
                      br.term_det_gram, br.total_likelihood, *consts]
                     for rep, br in enumerate(brs)]
            totals = [br.total_likelihood for br in brs]
            det_kappas = [br.term_det_kappa for br in brs]
            closed = det_kappa_term_log(p, prior.kappa0, prior.nu0, cfg.n1, cfg.n2)
            print(
                f"limits p={p} total_median={_median(totals):.6g} "
                f"total_limit={limits.total_limit:.6g} "
                f"det_kappa_median={_median(det_kappas):.6g} "
                f"det_kappa_closed={closed:.6g} "
                f"det_kappa_limit={limits.det_kappa_limit:.6g}"
            )
    _write_outputs(cfg, "limits", rows)


def _plot_limits(table: CsvTable) -> str:
    series = []
    for col in ("term_gamma", "term_kappa", "term_det_kappa", "term_det_gram", "total"):
        grid, med = _medians_by_p(table, col)
        series.append((f"{col} median", grid, med))
    cols = {name: i for i, name in enumerate(table.names)}
    gamma = table.values[0, cols["gamma_limit"]]
    kappa = table.values[0, cols["kappa_limit"]]
    # the medians are of row-standardized draws: both determinant terms
    # vanish like 1/p, so the total settles at gamma + kappa (see README)
    hlines = [
        ("gamma limit", gamma),
        ("kappa limit", kappa),
        ("det_kappa, det_gram limit", 0.0),
        ("total limit (gamma + kappa)", gamma + kappa),
    ]
    return line_plot(
        series,
        title="Merge-ratio terms vs analytic limits",
        xlabel="p (log scale)",
        ylabel="log-scale term",
        hlines=hlines,
    )


# ------------------------------------------------------------- projector


def cmd_projector(cfg: argparse.Namespace) -> None:
    def replicate(gi, p, rep):
        rng = np.random.default_rng([cfg.seed, gi, rep])
        return projector_residual(rng.standard_normal((cfg.n1, p)))

    rows = []
    with _replicate_pool(cfg.replicates) as pool:
        for gi, p in enumerate(cfg.p_grid):
            residuals = list(pool.map(partial(replicate, gi, p), range(cfg.replicates)))
            med = _median(residuals)
            rows.append([p, med])
            print(f"projector p={p} n={cfg.n1} median_residual={med:.6g}")
    _write_outputs(cfg, "projector", rows)


def _plot_projector(table: CsvTable) -> str:
    grid, med = _medians_by_p(table, "median_residual")
    return line_plot(
        [("median residual", grid, med)],
        title="Projector residual vs dimension",
        xlabel="p (log scale)",
        ylabel="spectral-norm residual",
    )


# ----------------------------------------------------------------- sweep


def _sweep_chain(cfg: argparse.Namespace, gi: int, p: int, kind: str, chain: int) -> list:
    """The sweep.csv row of one chain from singletons on its own mixture.

    Module-level so that a pool worker can run it.  It builds the prior
    from (kind, p) itself, so a task ships scalars, not a p-vector.
    """
    n = cfg.n1 + cfg.n2
    data, truth = generate(
        GenSpec(
            kind="two_cluster_mixture",
            n=n,
            p=p,
            separation=_SWEEP_SEPARATION,
            seed=_derived_seed(cfg.seed, gi, chain),
        )
    )
    summary = run_chain(
        data,
        _resolve_prior(cfg, kind, p),
        CrpPrior(cfg.alpha),
        sweeps=cfg.sweeps,
        burnin=cfg.burnin,
        seed=_derived_seed(cfg.seed, gi, chain, 1),
        init="singletons",
    )
    ks = np.asarray(summary.k_trace[cfg.burnin :])
    frac_k1 = float(np.mean(ks == 1))
    frac_kn = float(np.mean(ks == n))
    return [
        p,
        int(kind == "naive"),
        chain,
        frac_k1,
        frac_kn,
        frac_k1 + frac_kn,
        summary.k_mode,
        _median_ari(summary, truth),
    ]


def cmd_sweep(cfg: argparse.Namespace) -> None:
    """Run the chains on a process pool, one forked worker per usable CPU.

    A short chain is Python bytecode from end to end and holds the GIL,
    so threads would only take turns; worker processes run chains side
    by side.  Fork, not spawn: a forked worker inherits the loaded
    package instead of importing it again, and the command runs no
    thread of its own when it forks.  Each chain derives its data
    and seeds from (seed, grid index, chain) alone, and pool.map returns
    the rows in task order, so every output is byte-identical to a
    serial run at any CPU count.
    """
    # imported here, as for the thread pool, off every command's start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    groups = [(gi, p, kind) for gi, p in enumerate(cfg.p_grid)
              for kind in ("robust", "naive")]
    tasks = [(*group, chain) for group in groups for chain in range(cfg.replicates)]
    workers = min(len(tasks), _usable_cpus())
    # a few chunks per worker: chains differ in cost, and each chunk
    # costs a round trip to its worker
    chunk = -(-len(tasks) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("fork")) as pool:
        rows = list(pool.map(partial(_sweep_chain, cfg), *zip(*tasks), chunksize=chunk))
    col = _SWEEP_COLUMNS.index("degenerate_frac")
    for i, (_, p, kind) in enumerate(groups):
        degenerate = [row[col] for row in rows[i * cfg.replicates : (i + 1) * cfg.replicates]]
        print(
            f"sweep p={p} prior={kind} "
            f"degenerate_frac_median={_median(degenerate):.6g}"
        )
    _write_outputs(cfg, "sweep", rows)


def _plot_sweep(table: CsvTable) -> str:
    cols = {name: i for i, name in enumerate(table.names)}
    series = []
    for flag, kind in ((0, "robust"), (1, "naive")):
        mask = table.values[:, cols["prior_naive"]] == flag
        sub = CsvTable(values=table.values[mask], names=table.names)
        for col in ("degenerate_frac", "median_ari"):
            grid, med = _medians_by_p(sub, col)
            series.append((f"{kind} {col}", grid, med))
    return line_plot(
        series,
        title="Sampler dichotomy: robust vs naive prior",
        xlabel="p (log scale)",
        ylabel="post-burnin fraction / ARI",
    )


# --------------------------------------------------------------- cluster


def cmd_cluster(cfg: argparse.Namespace) -> None:
    data = read_csv(cfg.input).values
    prior = _resolve_prior(cfg, cfg.prior, data.shape[1])
    crp = CrpPrior(cfg.alpha)
    truth = None
    if cfg.truth:
        table = read_csv(cfg.truth).values
        if table.shape[1] != 1:
            raise InvalidConfig(
                f"truth must have one column of labels, got {table.shape[1]}"
            )
        labels = table[:, 0]
        bad = np.flatnonzero(~np.isfinite(labels) | (labels != np.round(labels)))
        if bad.size:
            raise InvalidConfig(
                f"truth row {bad[0] + 1}: label {labels[bad[0]]:g} is not an integer"
            )
        truth = Partition(int(v) for v in labels)
        if truth.n != data.shape[0]:
            raise InvalidConfig(
                f"truth covers {truth.n} rows, data has {data.shape[0]}"
            )
    summary = run_chain(
        data,
        prior,
        crp,
        sweeps=cfg.sweeps,
        burnin=cfg.burnin,
        seed=cfg.seed,
        # the all-in-one state is a strong attractor, so discovery
        # runs must start from singletons and merge downward
        init="singletons",
    )
    meta = _metadata(cfg)
    path = os.path.join(cfg.outdir, "co_clustering.csv")
    write_csv(path, summary.co_clustering, metadata=meta)
    trace = [[i + 1, k] for i, k in enumerate(summary.k_trace)]
    path = os.path.join(cfg.outdir, "k_trace.csv")
    write_csv(path, trace, names=("sweep", "k"), metadata=meta)
    line = f"cluster n={data.shape[0]} p={data.shape[1]} k_mode={summary.k_mode}"
    if truth is not None:
        line += f" ari={_median_ari(summary, truth):.4f}"
    print(line)


# ---------------------------------------------------------------- replot


# name -> (CSV columns, plot drawn from the CSV); replot matches columns
_OUTPUTS = {
    "limits": (_LIMIT_COLUMNS, _plot_limits),
    "projector": (("p", "median_residual"), _plot_projector),
    "sweep": (_SWEEP_COLUMNS, _plot_sweep),
}


def cmd_replot(cfg: argparse.Namespace) -> None:
    table = read_csv(cfg.input)
    if table.names is None:
        raise InvalidConfig(f"{cfg.input} has no header to identify the plot kind")
    for name, (columns, plot) in _OUTPUTS.items():
        if set(columns) <= set(table.names):
            try:
                text = plot(table)
            except ValueError as exc:  # p <= 0, or no finite value to plot
                raise InvalidConfig(f"cannot plot {cfg.input}: {exc}") from None
            _write_svg(os.path.join(cfg.outdir, f"{name}.svg"), text)
            return
    raise InvalidConfig(f"unrecognized columns in {cfg.input}")


# ------------------------------------------------------------------ main


# name -> (command, default --n1/--n2, the options it takes, help).
# sweep draws a 10-point mixture by default; the analytic commands
# default to the smallest nontrivial pair.  limits and sweep build their
# own priors and projector uses none, so only cluster takes --prior
_COMMANDS = {
    "limits": (cmd_limits, 1, "p-grid c1 c2 n1 n2 replicates seed outdir",
               "merge-ratio terms vs analytic limits over a p grid"),
    "cluster": (cmd_cluster, 1, "input truth prior c1 c2 alpha sweeps burnin seed outdir",
                "collapsed Gibbs clustering of a CSV dataset"),
    "sweep": (cmd_sweep, 5, "p-grid c1 c2 alpha n1 n2 replicates sweeps burnin seed outdir",
              "robust vs naive prior sampler dichotomy across p"),
    "projector": (cmd_projector, 1, "p-grid n1 replicates seed outdir",
                  "projector residual medians over a p grid"),
    "replot": (cmd_replot, 1, "input outdir", "regenerate the SVG for an output CSV"),
}

# option -> add_argument keywords; --n1 and --n2 default to the command's size
_OPTIONS = {
    # parsed in _validate, so a bad grid is a config error (exit 2)
    "p-grid": dict(default="", metavar="P1,P2,...",
                   help="comma-separated strictly increasing dimensions"),
    "c1": dict(type=float, default=1.0, help="robust prior kappa0 = c1*sqrt(p)"),
    "c2": dict(type=float, default=2.0, help="robust prior nu0 = c2*p, c2 > 1"),
    "alpha": dict(type=float, default=1.0, help="CRP concentration"),
    "n1": dict(type=int, help="first cluster size, or projector row count "
               "(default %(default)s)"),
    "n2": dict(type=int, help="second cluster size (default %(default)s)"),
    "replicates": dict(type=int, default=20),
    "sweeps": dict(type=int, default=200),
    "burnin": dict(type=int, default=50),
    "seed": dict(type=int, default=0),
    "input": dict(default=None, help="input CSV path"),
    "truth": dict(default=None, help="true labels CSV (one integer column)"),
    "outdir": dict(default="."),
    "prior": dict(default="robust", help="robust, naive, or custom:FILE"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="niwclust",
        description="Merge-ratio asymptotics and collapsed Gibbs clustering "
        "for Gaussian mixtures under NIW priors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (run, size, takes, text) in _COMMANDS.items():
        # one set of actions per subparser, so each keeps its own
        # --n1/--n2 default (actions shared through parents= would not)
        cmd = sub.add_parser(name, help=text)
        held = {}  # the default of each option the command does not take
        for option, spec in _OPTIONS.items():
            spec = {"default": size, **spec}
            if option in takes.split():
                cmd.add_argument("--" + option, **spec)
            else:
                held[option.replace("-", "_")] = spec["default"]
        cmd.set_defaults(run=run, **held)
    return parser


def main(argv=None) -> int:
    cfg = build_parser().parse_args(argv)
    try:
        _validate(cfg)
        os.makedirs(cfg.outdir, exist_ok=True)
        cfg.run(cfg)
    except (InvalidConfig, InvalidSpec) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        DomainError,
        NotPositiveDefinite,
        ConstantRow,
        ArithmeticError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (EmptyTable, ParseError, RaggedRows, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
