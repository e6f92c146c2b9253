"""Quantitative acceptance gates, one test per criterion.

Each test prints a single 'criterion N: PASS/FAIL (detail)' line before
asserting, so `pytest tests/test_acceptance.py -s` yields a ten-line
scoreboard.  Numbered helpers keep every gate independently runnable.
"""

import math
import time
from collections import Counter

import numpy as np
from scipy.special import gammaln

from niwclust.cli import main as cli_main
from niwclust.datagen import GenSpec, generate
from niwclust.io import read_csv, write_csv
from niwclust.niw import (
    LOG_PI,
    NiwPrior,
    RobustPriorSpec,
    cluster_log_marginal,
    robust_prior,
    row_standardize,
)
from niwclust.partition import CrpPrior, Partition, adjusted_rand_index
from niwclust.ratio import (
    analytic_limits,
    gamma_term_log,
    kappa_term_log,
    merge_log_ratio,
    projector_residual,
)
from niwclust.sampler import run_chain
import oracles


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _random_cluster(rng, n_max=20, p_max=200):
    n = int(rng.integers(1, n_max + 1))
    p = int(rng.integers(2, p_max + 1))
    scale = 10.0 ** rng.uniform(-2, 2)
    return rng.standard_normal((n, p)) * scale, p


def test_criterion_01_primal_dual_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        view, p = _random_cluster(rng)
        kind = rng.integers(0, 2)
        if kind == 0:
            prior = robust_prior(p, RobustPriorSpec(float(rng.uniform(0.5, 2.0)), 2.0))
        else:
            prior = NiwPrior(rng.standard_normal(p) * 0.3,
                             float(rng.uniform(0.5, 3.0)), p + 2.0,
                             float(rng.uniform(0.5, 4.0)))
        a = cluster_log_marginal(view, prior, form="primal")
        b = cluster_log_marginal(view, prior, form="dual")
        worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    elapsed = time.perf_counter() - start
    _report(1, worst < 1e-8 and elapsed < 30.0,
            f"max rel gap {worst:.3g} over 500 draws in {elapsed:.1f}s")


def test_criterion_02_decomposition_identity():
    rng = np.random.default_rng(202)
    crp = CrpPrior(1.0)
    worst = 0.0
    for _ in range(200):
        p = int(rng.integers(2, 12))
        n1 = int(rng.integers(1, 6))
        n2 = int(rng.integers(1, 6))
        data = rng.standard_normal((n1 + n2, p)) * 10.0 ** rng.uniform(-1, 1)
        if rng.integers(0, 2) == 0:
            prior = robust_prior(p, RobustPriorSpec(1.0, 2.0))
        else:
            prior = NiwPrior(np.zeros(p), 1.0, p + 2.0, 1.0)
        part = Partition([1] * n1 + [2] * n2)
        br = merge_log_ratio(data, part, 1, 2, prior, crp)
        direct = (
            cluster_log_marginal(data[:n1], prior)
            + cluster_log_marginal(data[n1:], prior)
            - cluster_log_marginal(data, prior)
        )
        worst = max(worst, abs(br.total_likelihood - direct))
    _report(2, worst < 1e-9, f"max |terms - direct| = {worst:.3g} over 200 draws")


def test_criterion_03_marginal_vs_quadrature():
    # pinned scalar instance: closed Student-t form at nu=3, scale^2=2/3
    prior1 = NiwPrior(np.zeros(1), 1.0, 3.0, 1.0)
    mine = cluster_log_marginal(np.zeros((1, 1)), prior1)
    exact = math.lgamma(2.0) - math.lgamma(1.5) - 0.5 * math.log(3.0 * math.pi * (2.0 / 3.0))
    # full value -0.7981562956; the 5-digit display truncates, so match
    # the closed form at 1e-9 and the display at its own precision
    ok = abs(mine - exact) < 1e-9 and abs(mine - (-0.79815)) < 1e-5
    details = [f"pinned gap {abs(mine - exact):.2g}"]

    # p = 1, two points, against live adaptive quadrature
    ys = (0.3, -1.1)
    quad = oracles.niw_marginal_quad_p1(ys, mu0=0.2, kappa0=1.5, nu0=4.0, lam0=2.0)
    prior = NiwPrior(np.array([0.2]), 1.5, 4.0, 2.0)
    mine1 = cluster_log_marginal(np.array(ys)[:, None], prior)
    rel1 = abs(mine1 - quad) / abs(quad)
    ok = ok and rel1 < 1e-6
    details.append(f"p1 rel {rel1:.2g}")

    # p = 2, frozen cubature value for one observation
    # (the package's priors are scalar; a full Lambda0 reaches it through
    # the change of variables in oracles.full_scale_log_marginal)
    mine2 = oracles.full_scale_log_marginal(
        np.array([oracles.QUAD_P2_Y]), np.array(oracles.QUAD_P2_MU0),
        oracles.QUAD_P2_KAPPA0, oracles.QUAD_P2_NU0, oracles.QUAD_P2_LAMBDA0)
    rel2 = abs(mine2 - oracles.QUAD_P2_LOG) / abs(oracles.QUAD_P2_LOG)
    ok = ok and rel2 < 1e-6
    details.append(f"p2 rel {rel2:.2g}")

    # p = 3, sequential Student-t predictive chain
    rng = np.random.default_rng(33)
    ys3 = rng.standard_normal((4, 3))
    lam3 = np.array([[1.5, 0.2, 0.0], [0.2, 1.1, -0.1], [0.0, -0.1, 0.9]])
    chain = oracles.t_chain_log_marginal(ys3, mu0=np.array([0.1, -0.2, 0.0]),
                                         kappa0=1.2, nu0=5.5, lam0=lam3)
    mine3 = oracles.full_scale_log_marginal(ys3, np.array([0.1, -0.2, 0.0]),
                                            1.2, 5.5, lam3)
    rel3 = abs(mine3 - chain) / abs(chain)
    ok = ok and rel3 < 1e-6
    details.append(f"p3 rel {rel3:.2g}")
    _report(3, ok, ", ".join(details))


def test_criterion_04_gamma_machinery():
    a = 160.0
    worst_rec = 0.0
    worst_prod = 0.0
    prev = oracles.log_multigamma(1, a)
    for p in range(2, 301):
        direct = oracles.log_multigamma(p, a)
        rec = prev + math.lgamma(a - (p - 1) / 2.0) + (p - 1) / 2.0 * LOG_PI
        worst_rec = max(worst_rec, abs(direct - rec) / abs(direct))
        js = np.arange(1, p + 1)
        prod = p * (p - 1) / 4.0 * LOG_PI + float(gammaln(a - (js - 1) / 2.0).sum())
        worst_prod = max(worst_prod, abs(direct - prod) / abs(direct))
        prev = direct
    ok = worst_rec < 1e-10 and worst_prod < 1e-10

    target = lambda n1, n2: n1 * n2 / 2.0 * math.log(0.5)
    conv_ok = True
    worst_margin = 0.0
    for n1, n2 in ((1, 1), (2, 2), (3, 4)):
        for p in (10**3, 10**4, 10**5):
            err = abs(gamma_term_log(p, 2.0 * p, n1, n2) - target(n1, n2))
            conv_ok = conv_ok and err < 5.0 * n1 * n2 / p
            worst_margin = max(worst_margin, err * p / (n1 * n2))
    _report(4, ok and conv_ok,
            f"recurrence {worst_rec:.2g}, product {worst_prod:.2g}, "
            f"limit err*p/(n1*n2) <= {worst_margin:.2f} (< 5)")


def test_criterion_05_kappa_bracket_limit():
    # the finite-p gap of the exponent is ~ n1 n2 (n1+n2) / sqrt(p), so
    # at p = 1e6 the 0.5% band holds for the unit pair; larger pairs are
    # checked directionally (the gap must shrink as p grows)
    def rel_gap(p, n1, n2):
        bracket_p = math.exp(-2.0 * kappa_term_log(p, math.sqrt(p), n1, n2))
        return abs(bracket_p - math.exp(n1 * n2)) / math.exp(n1 * n2)

    unit = rel_gap(10**6, 1, 1)
    shrinking = all(rel_gap(10**6, n1, n2) < rel_gap(10**5, n1, n2)
                    for n1, n2 in ((1, 2), (2, 2), (2, 3)))
    _report(5, unit < 0.005 and shrinking,
            f"(1,1) rel {unit:.3g} at p=1e6; larger pairs shrinking={shrinking}")


def test_criterion_06_total_limit_convergence():
    p, n1, n2 = 10**5, 2, 2
    spec = RobustPriorSpec(1.0, 2.0)
    # Whitened by Lambda0^{-1/2} = I/p, a row-standardized row has squared
    # norm (p - 1)/p^2, so the Gram matrix G tends to 0.  Both determinant
    # terms are then positive and vanish: term_det_kappa like
    # c2 n1 n2 / (c1^2 p) and term_det_gram like n1 n2 / p.  The total
    # therefore tends to gamma_limit + kappa_limit.  det_kappa_limit is the
    # limit of det_kappa_term_log, which needs G to grow, so total_limit
    # (the sum of all four constants) is not a limit of these data.
    lim = analytic_limits(spec, n1, n2)
    target = lim.gamma_limit + lim.kappa_limit
    prior = robust_prior(p, spec)
    part = Partition([1] * n1 + [2] * n2)
    crp = CrpPrior(1.0)
    start = time.perf_counter()
    totals = []
    for rep in range(20):
        rng = np.random.default_rng([606, rep])
        data = row_standardize(rng.standard_normal((n1 + n2, p)))
        totals.append(merge_log_ratio(data, part, 1, 2, prior, crp).total_likelihood)
    elapsed = time.perf_counter() - start
    med = float(np.median(totals))
    rel = abs(med - target) / abs(target)
    _report(6, rel <= 0.05 and elapsed < 300.0,
            f"median total {med:.5f} vs limit {target:.5f}, "
            f"rel gap {rel:.3f}, {elapsed:.1f}s")


def test_criterion_07_projector_residual_decay():
    medians = []
    for p in (50, 200, 1000):
        vals = []
        for rep in range(100):
            rng = np.random.default_rng([707, p, rep])
            vals.append(projector_residual(rng.standard_normal((10, p))))
        medians.append(float(np.median(vals)))
    ok = medians[0] > medians[1] > medians[2] and medians[2] < 0.05
    _report(7, ok, "medians " + ", ".join(f"{m:.4f}" for m in medians))


def test_criterion_08_sampler_exactness():
    rng = np.random.default_rng(42)
    data = rng.standard_normal((5, 6))
    prior = robust_prior(6, RobustPriorSpec(1.0, 2.0))
    alpha = 1.0

    def log_ml(rows):
        return cluster_log_marginal(rows, prior)

    exact = oracles.exact_partition_posterior(data, log_ml, alpha)
    assert len(exact) == 52  # Bell(5)

    start = time.perf_counter()
    out = run_chain(data, prior, CrpPrior(alpha), sweeps=10**5, burnin=2000,
                    seed=7)
    elapsed = time.perf_counter() - start
    counts = Counter(out.label_trace)
    total = len(out.label_trace)
    tv = 0.5 * sum(abs(counts.get(q, 0) / total - prob)
                   for q, prob in exact.items())
    _report(8, tv < 0.02 and elapsed < 120.0,
            f"TV {tv:.4f} over 52 partitions, {elapsed:.1f}s")


def test_criterion_09_chain_dichotomy_from_singletons():
    """Chain behaviour from singletons, not posterior mass.

    Single-site chains started from singletons under the naive prior
    stay degenerate (k = 1 or k = n), while under the robust prior they
    settle on the true two-cluster split.  The exact posterior on these
    five datasets puts P(k = 1) >= 1 - 2e-7 under both priors, and the
    robust prior gives P(k = 2) between 2e-11 and 2e-7
    (test_sampler.py::test_exact_posterior_on_gate9_data_is_one_cluster),
    so the k = 2 answer is where the chain stops, not the posterior mode.
    """
    p, n = 2000, 10
    robust = robust_prior(p, RobustPriorSpec(1.0, 2.0))
    naive = NiwPrior(np.zeros(p), 1.0, float(p + 2), 1.0)
    crp = CrpPrior(1.0)
    naive_degen = []
    robust_modes = []
    robust_aris = []
    for seed in range(5):
        data, truth = generate(GenSpec(kind="two_cluster_mixture", n=n, p=p,
                              separation=20.0, seed=seed))
        for prior, tag in ((naive, "naive"), (robust, "robust")):
            out = run_chain(data, prior, crp, sweeps=120, burnin=40,
                            seed=seed + 100, init="singletons")
            if tag == "naive":
                ks = np.asarray(out.k_trace[40:])
                naive_degen.append(float(np.mean((ks == 1) | (ks == n))))
            else:
                robust_modes.append(out.k_mode)
                ari = [adjusted_rand_index(Partition(lab), truth)
                       for lab in out.label_trace]
                robust_aris.append(float(np.median(ari)))
    degen_med = float(np.median(naive_degen))
    mode_of_modes = Counter(robust_modes).most_common(1)[0][0]
    ari_med = float(np.median(robust_aris))
    ok = degen_med > 0.8 and mode_of_modes == 2 and ari_med >= 0.8
    _report(9, ok,
            f"chains from singletons, not posterior mass: naive degenerate "
            f"median {degen_med:.2f}, robust k modes {robust_modes}, median "
            f"ARI {ari_med:.2f}; exact P(k=1) >= 1-2e-7, robust P(k=2) "
            f"2e-11..2e-7")


def test_criterion_10_cli_determinism(tmp_path):
    data, truth = generate(GenSpec(kind="two_cluster_mixture", n=8, p=6,
                          separation=6.0, seed=1))
    data_path = tmp_path / "data.csv"
    truth_path = tmp_path / "truth.csv"
    write_csv(data_path, data)
    write_csv(truth_path, np.asarray(truth.labels, dtype=float)[:, None])

    runs = {
        "limits": ["limits", "--p-grid", "40,80", "--replicates", "2"],
        "projector": ["projector", "--p-grid", "20,50", "--n1", "5",
                      "--replicates", "5"],
        "sweep": ["sweep", "--p-grid", "60", "--sweeps", "8", "--burnin",
                  "2", "--replicates", "1"],
        "cluster": ["cluster", "--input", str(data_path), "--truth",
                    str(truth_path), "--prior", "naive", "--sweeps", "20",
                    "--burnin", "5"],
    }
    ok = True
    details = []
    for name, argv in runs.items():
        dir_a = tmp_path / f"{name}_a"
        dir_b = tmp_path / f"{name}_b"
        ra = cli_main(argv + ["--outdir", str(dir_a)])
        rb = cli_main(argv + ["--outdir", str(dir_b)])
        same = ra == rb == 0
        files = sorted(f.name for f in dir_a.iterdir())
        same = same and files == sorted(f.name for f in dir_b.iterdir())
        for f in files:
            same = same and (dir_a / f).read_bytes() == (dir_b / f).read_bytes()
        ok = ok and same
        details.append(f"{name} {'ok' if same else 'MISMATCH'}")

    for name, csv_name, svg_name in (("limits", "limits.csv", "limits.svg"),
                                     ("projector", "projector.csv", "projector.svg"),
                                     ("sweep", "sweep.csv", "sweep.svg")):
        redir = tmp_path / f"{name}_re"
        rc = cli_main(["replot", "--input", str(tmp_path / f"{name}_a" / csv_name),
                       "--outdir", str(redir)])
        same = rc == 0 and ((tmp_path / f"{name}_a" / svg_name).read_bytes()
                            == (redir / svg_name).read_bytes())
        ok = ok and same
        details.append(f"replot-{name} {'ok' if same else 'MISMATCH'}")
    _report(10, ok, ", ".join(details))
