"""Batch command-line front end.

Four experiment drivers plus a replot utility:

  limits     exact merge-ratio terms vs their analytic limits over a p grid
  sweep      sampler dichotomy demo: robust vs naive prior across p
  cluster    run the collapsed Gibbs sampler on a CSV dataset
  projector  Woodbury projector residual medians over a p grid
  replot     regenerate the SVG for an existing output CSV

Every output CSV starts with a metadata comment line (version, full
config, seed, generator name) and every SVG is a pure function of its
CSV, so replot reproduces plots byte-identically.  Exit codes: 0 ok,
2 config error, 3 numeric failure, 4 I/O failure.
"""

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .datagen import RNG_NAME, GenSpec, generate
from .errors import (
    ConstantRow,
    DomainError,
    InvalidConfig,
    InvalidSpec,
    NotPositiveDefinite,
    ParseError,
    RaggedRows,
)
from .io import CsvTable, read_csv, write_csv
from .niw import NiwPrior, RobustPriorSpec, robust_prior, row_standardize
from .partition import CrpPrior, Partition, adjusted_rand_index
from .ratio import analytic_limits, det_kappa_term_log, merge_log_ratio, projector_residual
from .sampler import run_chain
from .svg import line_plot

__all__ = ["RunConfig", "main"]

_COMMANDS = ("limits", "cluster", "sweep", "projector", "replot")

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


@dataclass
class RunConfig:
    """Validated run configuration shared by all commands."""

    command: str
    p_grid: tuple = ()
    c1: float = 1.0
    c2: float = 2.0
    alpha: float = 1.0
    n1: int = 1
    n2: int = 1
    replicates: int = 20
    sweeps: int = 200
    burnin: int = 50
    seed: int = 0
    input: Optional[str] = None
    truth: Optional[str] = None
    outdir: str = "."
    prior: str = "robust"

    def validate(self) -> None:
        if self.command not in _COMMANDS:
            raise InvalidConfig(f"unknown command {self.command!r}")
        if self.command in ("limits", "sweep", "projector"):
            if not self.p_grid:
                raise InvalidConfig("p_grid must not be empty")
            if any(b <= a for a, b in zip(self.p_grid, self.p_grid[1:])):
                raise InvalidConfig("p_grid must be strictly increasing")
            if self.p_grid[0] < 2:
                raise InvalidConfig("p_grid entries must be >= 2")
        if self.replicates < 1:
            raise InvalidConfig("replicates must be >= 1")
        if self.n1 < 1 or self.n2 < 1:
            raise InvalidConfig("n1 and n2 must be >= 1")
        if not self.alpha > 0:
            raise InvalidConfig("alpha must be positive")
        if self.prior == "robust" and not self.c2 > 1:
            raise InvalidConfig("robust prior needs c2 > 1")
        if not (
            self.prior in ("robust", "naive") or self.prior.startswith("custom:")
        ):
            raise InvalidConfig(f"unknown prior {self.prior!r}")
        if self.command in ("sweep", "cluster"):
            if self.burnin < 0 or self.sweeps <= self.burnin:
                raise InvalidConfig("need sweeps > burnin >= 0")
        if self.command in ("cluster", "replot") and not self.input:
            raise InvalidConfig(f"{self.command} requires --input")
        if self.command == "limits" and self.prior != "robust":
            raise InvalidConfig("limits compares against robust-prior limits")

    def metadata(self) -> str:
        grid = ",".join(str(p) for p in self.p_grid)
        return (
            f"niwclust {__version__} | command={self.command} p_grid={grid} "
            f"c1={self.c1:g} c2={self.c2:g} alpha={self.alpha:g} "
            f"n1={self.n1} n2={self.n2} replicates={self.replicates} "
            f"sweeps={self.sweeps} burnin={self.burnin} seed={self.seed} "
            f"prior={self.prior} input={self.input or '-'} "
            f"truth={self.truth or '-'} | rng={RNG_NAME}"
        )

    def out(self, name: str) -> str:
        return os.path.join(self.outdir, name)


def _derived_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _resolve_prior(cfg: RunConfig, p: int) -> NiwPrior:
    if cfg.prior == "robust":
        return robust_prior(p, RobustPriorSpec(cfg.c1, cfg.c2))
    if cfg.prior == "naive":
        return NiwPrior(np.zeros(p), 1.0, float(p + 2), 1.0)
    path = cfg.prior[len("custom:") :]
    keys = {"mu0": 0.0, "kappa0": 1.0, "nu0": float(p + 2), "lambda0_scale": 1.0}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidConfig(f"bad prior line {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in keys:
                raise InvalidConfig(f"unknown prior key {key!r}")
            keys[key] = float(value)
    return NiwPrior(
        np.full(p, keys["mu0"]),
        keys["kappa0"],
        keys["nu0"],
        keys["lambda0_scale"],
    )


def _medians_by_p(table: CsvTable, value_col: str):
    cols = {name: i for i, name in enumerate(table.names)}
    ps = table.values[:, cols["p"]]
    vs = table.values[:, cols[value_col]]
    grid = np.unique(ps)
    return grid, np.array([np.median(vs[ps == p]) for p in grid])


# ---------------------------------------------------------------- limits


def cmd_limits(cfg: RunConfig) -> None:
    spec = RobustPriorSpec(cfg.c1, cfg.c2)
    limits = analytic_limits(spec, cfg.n1, cfg.n2)
    part = Partition([1] * cfg.n1 + [2] * cfg.n2)
    crp = CrpPrior(cfg.alpha)
    rows = []
    for gi, p in enumerate(cfg.p_grid):
        prior = robust_prior(p, spec)
        totals = []
        det_kappas = []
        for rep in range(cfg.replicates):
            rng = np.random.default_rng([cfg.seed, gi, rep])
            data = row_standardize(rng.standard_normal((cfg.n1 + cfg.n2, p)))
            br = merge_log_ratio(data, part, 1, 2, prior, crp)
            totals.append(br.total_likelihood)
            det_kappas.append(br.term_det_kappa)
            rows.append(
                [
                    p,
                    rep,
                    br.term_gamma,
                    br.term_kappa,
                    br.term_det_kappa,
                    br.term_det_gram,
                    br.total_likelihood,
                    limits.gamma_limit,
                    limits.kappa_limit,
                    limits.det_kappa_limit,
                    limits.total_limit,
                ]
            )
        closed = det_kappa_term_log(p, prior.kappa0, prior.nu0, cfg.n1, cfg.n2)
        print(
            f"limits p={p} total_median={np.median(totals):.6g} "
            f"total_limit={limits.total_limit:.6g} "
            f"det_kappa_median={np.median(det_kappas):.6g} "
            f"det_kappa_closed={closed:.6g} "
            f"det_kappa_limit={limits.det_kappa_limit:.6g}"
        )
    path = cfg.out("limits.csv")
    write_csv(path, rows, names=_LIMIT_COLUMNS, metadata=cfg.metadata())
    _write_svg(cfg.out("limits.svg"), _plot_limits(read_csv(path)))


def _plot_limits(table: CsvTable) -> str:
    series = []
    for col in ("term_gamma", "term_kappa", "term_det_kappa", "term_det_gram", "total"):
        grid, med = _medians_by_p(table, col)
        series.append((f"{col} median", grid, med))
    cols = {name: i for i, name in enumerate(table.names)}
    first = table.values[0]
    hlines = [
        ("gamma limit", first[cols["gamma_limit"]]),
        ("kappa limit", first[cols["kappa_limit"]]),
        ("det_kappa limit", first[cols["det_kappa_limit"]]),
        ("det_gram limit", 0.0),
        ("total limit", first[cols["total_limit"]]),
    ]
    return line_plot(
        series,
        title="Merge-ratio terms vs analytic limits",
        xlabel="p (log scale)",
        ylabel="log-scale term",
        xlog=True,
        hlines=hlines,
    )


# ------------------------------------------------------------- projector


def cmd_projector(cfg: RunConfig) -> None:
    rows = []
    for gi, p in enumerate(cfg.p_grid):
        residuals = []
        for rep in range(cfg.replicates):
            rng = np.random.default_rng([cfg.seed, gi, rep])
            y = rng.standard_normal((cfg.n1, p))
            residuals.append(projector_residual(y))
        med = float(np.median(residuals))
        rows.append([p, med])
        print(f"projector p={p} n={cfg.n1} median_residual={med:.6g}")
    path = cfg.out("projector.csv")
    write_csv(path, rows, names=("p", "median_residual"), metadata=cfg.metadata())
    _write_svg(cfg.out("projector.svg"), _plot_projector(read_csv(path)))


def _plot_projector(table: CsvTable) -> str:
    grid, med = _medians_by_p(table, "median_residual")
    return line_plot(
        [("median residual", grid, med)],
        title="Projector residual vs dimension",
        xlabel="p (log scale)",
        ylabel="spectral-norm residual",
        xlog=True,
    )


# ----------------------------------------------------------------- sweep


def cmd_sweep(cfg: RunConfig) -> None:
    crp = CrpPrior(cfg.alpha)
    n = cfg.n1 + cfg.n2
    rows = []
    for gi, p in enumerate(cfg.p_grid):
        for naive_flag, kind in ((0, "robust"), (1, "naive")):
            if kind == "robust":
                prior = robust_prior(p, RobustPriorSpec(cfg.c1, cfg.c2))
            else:
                prior = NiwPrior(np.zeros(p), 1.0, float(p + 2), 1.0)
            degenerate = []
            for chain in range(cfg.replicates):
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
                    prior,
                    crp,
                    sweeps=cfg.sweeps,
                    burnin=cfg.burnin,
                    seed=_derived_seed(cfg.seed, gi, chain, 1),
                    init="singletons",
                    keep_labels=True,
                )
                ks = np.asarray(summary.k_trace[cfg.burnin :])
                frac_k1 = float(np.mean(ks == 1))
                frac_kn = float(np.mean(ks == n))
                aris = [
                    adjusted_rand_index(Partition(lab), truth)
                    for lab in summary.label_trace
                ]
                rows.append(
                    [
                        p,
                        naive_flag,
                        chain,
                        frac_k1,
                        frac_kn,
                        frac_k1 + frac_kn,
                        summary.k_mode,
                        float(np.median(aris)),
                    ]
                )
                degenerate.append(frac_k1 + frac_kn)
            print(
                f"sweep p={p} prior={kind} "
                f"degenerate_frac_median={np.median(degenerate):.6g}"
            )
    path = cfg.out("sweep.csv")
    write_csv(path, rows, names=_SWEEP_COLUMNS, metadata=cfg.metadata())
    _write_svg(cfg.out("sweep.svg"), _plot_sweep(read_csv(path)))


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
        xlog=True,
    )


# --------------------------------------------------------------- cluster


def cmd_cluster(cfg: RunConfig) -> None:
    table = read_csv(cfg.input)
    data = table.values
    prior = _resolve_prior(cfg, data.shape[1])
    crp = CrpPrior(cfg.alpha)
    truth = None
    if cfg.truth:
        truth_table = read_csv(cfg.truth)
        truth = Partition(int(v) for v in truth_table.values[:, 0])
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
        keep_labels=truth is not None,
    )
    write_csv(
        cfg.out("co_clustering.csv"), summary.co_clustering, metadata=cfg.metadata()
    )
    trace = [[i + 1, k] for i, k in enumerate(summary.k_trace)]
    write_csv(
        cfg.out("k_trace.csv"), trace, names=("sweep", "k"), metadata=cfg.metadata()
    )
    line = (
        f"cluster n={data.shape[0]} p={data.shape[1]} k_mode={summary.k_mode}"
    )
    if truth is not None:
        aris = [
            adjusted_rand_index(Partition(lab), truth)
            for lab in summary.label_trace
        ]
        line += f" ari={float(np.median(aris)):.4f}"
    print(line)


# ---------------------------------------------------------------- replot


def cmd_replot(cfg: RunConfig) -> None:
    table = read_csv(cfg.input)
    if table.names is None:
        raise InvalidConfig(f"{cfg.input} has no header to identify the plot kind")
    names = set(table.names)
    if set(_LIMIT_COLUMNS) <= names:
        _write_svg(cfg.out("limits.svg"), _plot_limits(table))
    elif "median_residual" in names:
        _write_svg(cfg.out("projector.svg"), _plot_projector(table))
    elif "frac_k1" in names:
        _write_svg(cfg.out("sweep.svg"), _plot_sweep(table))
    else:
        raise InvalidConfig(f"unrecognized columns in {cfg.input}")


def _write_svg(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


# ------------------------------------------------------------------ main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="niwclust",
        description="Merge-ratio asymptotics and collapsed Gibbs clustering "
        "for Gaussian mixtures under NIW priors.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p-grid", default="", metavar="P1,P2,...",
                        help="comma-separated strictly increasing dimensions")
    common.add_argument("--c1", type=float, default=1.0,
                        help="robust prior kappa0 = c1*sqrt(p)")
    common.add_argument("--c2", type=float, default=2.0,
                        help="robust prior nu0 = c2*p, c2 > 1")
    common.add_argument("--alpha", type=float, default=1.0,
                        help="CRP concentration")
    # None defers the default to config_from_args: sweep wants 5+5
    # points, every other command a 1+1 split
    common.add_argument("--n1", type=int, default=None,
                        help="first cluster size (projector row count; "
                        "default 1, sweep 5)")
    common.add_argument("--n2", type=int, default=None,
                        help="second cluster size (default 1, sweep 5)")
    common.add_argument("--replicates", type=int, default=20)
    common.add_argument("--sweeps", type=int, default=200)
    common.add_argument("--burnin", type=int, default=50)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--input", default=None, help="input CSV path")
    common.add_argument("--truth", default=None,
                        help="true labels CSV (one integer column)")
    common.add_argument("--outdir", default=".")
    common.add_argument("--prior", default="robust",
                        help="robust, naive, or custom:FILE")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("limits", parents=[common],
                   help="merge-ratio terms vs analytic limits over a p grid")
    sub.add_parser("cluster", parents=[common],
                   help="collapsed Gibbs clustering of a CSV dataset")
    sub.add_parser("sweep", parents=[common],
                   help="robust vs naive prior sampler dichotomy across p")
    sub.add_parser("projector", parents=[common],
                   help="projector residual medians over a p grid")
    sub.add_parser("replot", parents=[common],
                   help="regenerate the SVG for an output CSV")
    return parser


def _parse_grid(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise InvalidConfig(f"bad p_grid {text!r}") from None


def config_from_args(args: argparse.Namespace) -> RunConfig:
    # sweep draws a 10-point mixture by default; the analytic commands
    # default to the smallest nontrivial pair
    fallback = 5 if args.command == "sweep" else 1
    cfg = RunConfig(
        command=args.command,
        p_grid=_parse_grid(args.p_grid),
        c1=args.c1,
        c2=args.c2,
        alpha=args.alpha,
        n1=args.n1 if args.n1 is not None else fallback,
        n2=args.n2 if args.n2 is not None else fallback,
        replicates=args.replicates,
        sweeps=args.sweeps,
        burnin=args.burnin,
        seed=args.seed,
        input=args.input,
        truth=args.truth,
        outdir=args.outdir,
        prior=args.prior,
    )
    cfg.validate()
    return cfg


_DISPATCH = {
    "limits": cmd_limits,
    "cluster": cmd_cluster,
    "sweep": cmd_sweep,
    "projector": cmd_projector,
    "replot": cmd_replot,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (InvalidConfig, InvalidSpec) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        os.makedirs(cfg.outdir, exist_ok=True)
        _DISPATCH[cfg.command](cfg)
    except (InvalidConfig, InvalidSpec) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        DomainError,
        NotPositiveDefinite,
        ConstantRow,
        FloatingPointError,
        OverflowError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, RaggedRows, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
