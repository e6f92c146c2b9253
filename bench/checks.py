"""Output checks and the analytic reference recomputation.

Every check takes one command's output directory and captured stdout
and returns ``(problems, quality)``: a list of strings, empty when the
outputs are right, and the quality numbers read from them.  Nothing
here imports niwclust; the reference values are recomputed with numpy
and the standard library alone.
"""

import math
import os
import re
from collections import Counter

import numpy as np

LIMIT_TERMS = ("term_gamma", "term_kappa", "term_det_kappa", "term_det_gram", "total")
LIMIT_CONSTS = ("gamma_limit", "kappa_limit", "det_kappa_limit", "total_limit")
LIMITS_TOL = 1e-8


def read_table(path):
    """(names or None, float matrix) of a CSV, skipping '#' lines."""
    names = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = line.split(",")
            if names is None and not rows:
                try:
                    rows.append([float(c) for c in cells])
                except ValueError:
                    names = tuple(c.strip() for c in cells)
                continue
            rows.append([float(c) for c in cells])
    width = len(names) if names else (len(rows[0]) if rows else 0)
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows")
    return names, np.array(rows, dtype=float).reshape(len(rows), width)


def _load(outdir, name, problems):
    path = os.path.join(outdir, name)
    try:
        return read_table(path)
    except (OSError, ValueError) as exc:
        problems.append(f"{name}: unreadable ({exc})")
        return None, None


def _check_svg(outdir, name, problems):
    path = os.path.join(outdir, name)
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        problems.append(f"{name}: missing ({exc})")
        return
    if not (text.lstrip().startswith("<svg") and text.rstrip().endswith("</svg>")):
        problems.append(f"{name}: not a complete SVG document")


def _columns(names, values, wanted, fname, problems):
    if names is None:
        problems.append(f"{fname}: no header")
        return None
    missing = [w for w in wanted if w not in names]
    if missing:
        problems.append(f"{fname}: missing columns {missing}")
        return None
    return {w: values[:, names.index(w)] for w in wanted}


# --------------------------------------------------------------- cluster


def check_cluster(outdir, stdout, ctx):
    """k_mode=2, ARI 1.0, a valid 400x400 co-clustering, a 200-row k trace."""
    problems = []
    quality = {}
    n, sweeps = ctx["n"], ctx["sweeps"]
    match = re.search(r"k_mode=(\d+)\s+ari=([-+0-9.eE]+)", stdout)
    if match is None:
        problems.append(f"stdout: no 'k_mode=.. ari=..' line in {stdout!r}")
    else:
        k_mode, ari = int(match.group(1)), float(match.group(2))
        quality["ari_median"] = ari
        if k_mode != 2:
            problems.append(f"stdout: k_mode={k_mode}, expected 2")
        if ari != 1.0:
            problems.append(f"stdout: ari={ari}, expected 1.0")

    _, co = _load(outdir, "co_clustering.csv", problems)
    if co is not None:
        if co.shape != (n, n):
            problems.append(f"co_clustering.csv: shape {co.shape}, expected {(n, n)}")
        else:
            if not np.array_equal(co, co.T):
                problems.append("co_clustering.csv: not symmetric")
            if not np.all(np.diag(co) == 1.0):
                problems.append("co_clustering.csv: diagonal is not all 1")
            if not (np.all(co >= 0.0) and np.all(co <= 1.0)):
                problems.append("co_clustering.csv: entries outside [0, 1]")

    names, trace = _load(outdir, "k_trace.csv", problems)
    if trace is not None:
        cols = _columns(names, trace, ("sweep", "k"), "k_trace.csv", problems)
        if cols is not None:
            if trace.shape[0] != sweeps:
                problems.append(f"k_trace.csv: {trace.shape[0]} rows, expected {sweeps}")
            elif not np.array_equal(cols["sweep"], np.arange(1, sweeps + 1)):
                problems.append("k_trace.csv: sweep column is not 1..sweeps")
            if not np.all((cols["k"] >= 1) & (cols["k"] <= n) & (cols["k"] % 1 == 0)):
                problems.append("k_trace.csv: k outside 1..n")
    return problems, quality


# ----------------------------------------------------------------- sweep

SWEEP_COLUMNS = ("p", "prior_naive", "chain", "frac_k1", "frac_kn",
                 "degenerate_frac", "k_mode", "median_ari")


def check_sweep(outdir, stdout, ctx):
    """Acceptance gate 9's thresholds applied to sweep.csv."""
    problems = []
    quality = {}
    names, values = _load(outdir, "sweep.csv", problems)
    if values is not None:
        cols = _columns(names, values, SWEEP_COLUMNS, "sweep.csv", problems)
        expected = 2 * len(ctx["p_grid"]) * ctx["replicates"]
        if values.shape[0] != expected:
            problems.append(f"sweep.csv: {values.shape[0]} rows, expected {expected}")
        if cols is not None and values.shape[0]:
            robust = cols["prior_naive"] == 0
            naive = cols["prior_naive"] == 1
            if not (robust.any() and naive.any()):
                problems.append("sweep.csv: needs both robust and naive rows")
            else:
                ari = float(np.median(cols["median_ari"][robust]))
                degen = float(np.median(cols["degenerate_frac"][naive]))
                mode = Counter(cols["k_mode"][robust].tolist()).most_common(1)[0][0]
                quality["ari_median"] = ari
                if not ari >= 0.8:
                    problems.append(f"sweep.csv: robust median ARI {ari} < 0.8")
                if not degen > 0.8:
                    problems.append(f"sweep.csv: naive degenerate median {degen} <= 0.8")
                if mode != 2:
                    problems.append(f"sweep.csv: robust mode of k_mode is {mode}, not 2")
    _check_svg(outdir, "sweep.svg", problems)
    return problems, quality


# ------------------------------------------------------------- analytic


def _rel(value, ref, floor):
    return abs(value - ref) / max(floor, abs(ref))


def check_limits(outdir, stdout, ctx):
    """limits.csv terms equal the reference within 1e-8 of max(1, |v|).

    The gap between total and total_limit is acceptance gate 6, which
    fails by design (see README), so it is not checked.
    """
    problems = []
    ref = ctx["reference"]["limits"]
    names, values = _load(outdir, "limits.csv", problems)
    worst = 0.0
    if values is not None:
        cols = _columns(names, values, ("p", "replicate") + LIMIT_TERMS + LIMIT_CONSTS,
                        "limits.csv", problems)
        if cols is not None:
            if values.shape[0] != len(ref["p"]):
                problems.append(
                    f"limits.csv: {values.shape[0]} rows, expected {len(ref['p'])}")
            elif not (np.array_equal(cols["p"], ref["p"])
                      and np.array_equal(cols["replicate"], ref["replicate"])):
                problems.append("limits.csv: p/replicate rows out of order")
            else:
                for name in LIMIT_TERMS + LIMIT_CONSTS:
                    errs = [_rel(v, r, 1.0) for v, r in zip(cols[name], ref[name])]
                    err = float(np.max(errs)) if errs else 0.0  # NaN propagates
                    if not err <= LIMITS_TOL:  # also catches NaN
                        problems.append(f"limits.csv: {name} off by {err:.3g} relative")
                        err = float("inf") if math.isnan(err) else err
                    worst = max(worst, err)
    _check_svg(outdir, "limits.svg", problems)
    return problems, {"limits_rel_err": worst}


def check_projector(outdir, stdout, ctx):
    """projector.csv covers the grid with residuals in (0, 1].

    Its deviation from the exact 1/(1 + lambda_min) is reported, not
    gated: it measures the power iteration's accuracy.
    """
    problems = []
    ref = ctx["reference"]["projector"]
    names, values = _load(outdir, "projector.csv", problems)
    worst = 0.0
    if values is not None:
        cols = _columns(names, values, ("p", "median_residual"), "projector.csv", problems)
        if cols is not None:
            med = cols["median_residual"]
            if not np.array_equal(cols["p"], ref["p"]):
                problems.append(f"projector.csv: p column {cols['p'].tolist()}")
            elif not np.all((med > 0.0) & (med <= 1.0)):
                problems.append("projector.csv: residual outside (0, 1]")
            else:
                worst = max(_rel(v, r, 0.0) for v, r in zip(med, ref["median_residual"]))
    _check_svg(outdir, "projector.svg", problems)
    return problems, {"projector_rel_err": worst}


def _standardize(y):
    centered = y - y.mean(axis=1, keepdims=True)
    return centered / np.sqrt((centered**2).sum(axis=1) / (y.shape[1] - 1))[:, None]


def _log_gamma_p_ratio(p, nu0, n):
    """log Gamma_p((nu0 + n)/2) - log Gamma_p(nu0/2) for integer n >= 0.

    Telescoping the product over the p univariate factors leaves n
    terms per side.
    """
    return sum(math.lgamma((nu0 + j) / 2.0) - math.lgamma((nu0 + j - p) / 2.0)
               for j in range(1, n + 1))


def _dual_parts(rows, kappa0):
    """(log scalar factor, log|I + G|) of transformed rows, via slogdet/solve."""
    n = rows.shape[0]
    a = np.eye(n) + rows @ rows.T
    sign, log_det = np.linalg.slogdet(a)
    if sign <= 0:
        raise np.linalg.LinAlgError("I + G is not positive definite")
    quad = float(np.ones(n) @ np.linalg.solve(a, np.ones(n)))
    return math.log((kappa0 + quad) / (n + kappa0)), float(log_det)


def limits_reference(seed, p_grid, replicates, n1, n2, c1=1.0, c2=2.0):
    """Regenerate the `limits` draws and recompute every column.

    Robust prior: kappa0 = c1 sqrt(p), nu0 = c2 p, Lambda0 = p^2 I,
    mu0 = 0, so the transformed rows are the standardized rows over p.
    """
    out = {k: [] for k in ("p", "replicate") + LIMIT_TERMS + LIMIT_CONSTS}
    gamma_lim = n1 * n2 / 2.0 * math.log(1.0 - 1.0 / c2)
    kappa_lim = -n1 * n2 / (2.0 * c1**2)
    det_kappa_lim = c2 * n1 * n2 / (2.0 * c1**2)
    for gi, p in enumerate(p_grid):
        kappa0, nu0 = c1 * math.sqrt(p), c2 * p
        t_gamma = (_log_gamma_p_ratio(p, nu0, n1) + _log_gamma_p_ratio(p, nu0, n2)
                   - _log_gamma_p_ratio(p, nu0, n1 + n2))
        t_kappa = p / 2.0 * (math.log(kappa0 / (kappa0 + n1))
                             + math.log(kappa0 / (kappa0 + n2))
                             - math.log(kappa0 / (kappa0 + n1 + n2)))
        for rep in range(replicates):
            rng = np.random.default_rng([seed, gi, rep])
            yt = _standardize(rng.standard_normal((n1 + n2, p))) / p
            sf1, ld1 = _dual_parts(yt[:n1], kappa0)
            sf2, ld2 = _dual_parts(yt[n1:], kappa0)
            sfm, ldm = _dual_parts(yt, kappa0)
            h1, h2, hm = (nu0 + n1) / 2.0, (nu0 + n2) / 2.0, (nu0 + n1 + n2) / 2.0
            t_det_kappa = hm * sfm - h1 * sf1 - h2 * sf2
            t_det_gram = hm * ldm - h1 * ld1 - h2 * ld2
            for key, val in (
                ("p", p), ("replicate", rep), ("term_gamma", t_gamma),
                ("term_kappa", t_kappa), ("term_det_kappa", t_det_kappa),
                ("term_det_gram", t_det_gram),
                ("total", t_gamma + t_kappa + t_det_kappa + t_det_gram),
                ("gamma_limit", gamma_lim), ("kappa_limit", kappa_lim),
                ("det_kappa_limit", det_kappa_lim),
                ("total_limit", gamma_lim + kappa_lim + det_kappa_lim),
            ):
                out[key].append(val)
    return {k: np.array(v, dtype=float) for k, v in out.items()}


def projector_reference(seed, p_grid, replicates, n):
    """Exact median residual per p: ||(I + Y Y^T)^-1||_2 = 1/(1 + lambda_min)."""
    meds = []
    for gi, p in enumerate(p_grid):
        res = []
        for rep in range(replicates):
            y = np.random.default_rng([seed, gi, rep]).standard_normal((n, p))
            res.append(1.0 / (1.0 + np.linalg.eigvalsh(y @ y.T)[0]))
        meds.append(float(np.median(res)))
    return {"p": np.array(p_grid, dtype=float), "median_residual": np.array(meds)}
