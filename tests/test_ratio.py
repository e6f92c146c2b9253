"""Merge-ratio decomposition, closed-form terms, and dimension limits."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from niwclust.errors import ConstantRow, DomainError
from niwclust.niw import (
    NiwPrior,
    RobustPriorSpec,
    cluster_log_marginal,
    robust_prior,
    row_standardize,
)
from niwclust.partition import CrpPrior, Partition
from niwclust.ratio import (
    analytic_limits,
    det_kappa_term_log,
    kappa_term_log,
    merge_log_ratio,
    projector_residual,
    standardized_merge_log_ratio,
)
import oracles


def _random_prior(rng, p):
    kind = rng.integers(0, 3)
    if kind == 0:
        return robust_prior(p, RobustPriorSpec(1.0, 2.0))
    if kind == 1:
        return NiwPrior(np.zeros(p), 1.0, p + 2.0, 1.0)
    lam = p * (1.0 + rng.random())
    return NiwPrior(rng.standard_normal(p), 0.7, p + 3.5, lam)


def test_breakdown_terms_sum_to_direct_marginal_difference():
    rng = np.random.default_rng(31)
    crp = CrpPrior(1.0)
    for _ in range(20):
        p = int(rng.integers(2, 9))
        n1 = int(rng.integers(1, 5))
        n2 = int(rng.integers(1, 5))
        data = rng.standard_normal((n1 + n2, p))
        prior = _random_prior(rng, p)
        part = Partition([1] * n1 + [2] * n2)
        br = merge_log_ratio(data, part, 1, 2, prior, crp)

        direct = (
            cluster_log_marginal(data[:n1], prior)
            + cluster_log_marginal(data[n1:], prior)
            - cluster_log_marginal(data, prior)
        )
        four = br.term_gamma + br.term_kappa + br.term_det_kappa + br.term_det_gram
        assert br.total_likelihood == pytest.approx(four, abs=1e-12)
        assert br.total_likelihood == pytest.approx(direct, rel=1e-8, abs=1e-8)
        assert br.total_posterior == pytest.approx(br.eppf + br.total_likelihood,
                                                   abs=1e-12)


def test_total_likelihood_is_exact_far_from_the_prior():
    # 30 rows in p = 3 split 15/15, far from mu0 and far above
    # sqrt(lambda0) in scale: every cluster has n > p, which the n x n
    # Gram factor alone got wrong by up to 8e-2 nats, or raised on
    crp = CrpPrior(1.0)
    prior = NiwPrior(np.zeros(3), 1.0, 7.0, 1.0)
    part = Partition([1] * 15 + [2] * 15)
    z = np.random.default_rng(0).standard_normal((30, 3))

    def mp(rows):
        return oracles.mp_log_marginal(rows, prior.mu0, 1.0, 7.0, 1.0)

    for shift in (0.0, 10.0, 1000.0):
        for scale in (1.0, 1e3, 1e5):
            data = (z + shift) * scale
            ref = mp(data[:15]) + mp(data[15:]) - mp(data)
            mine = merge_log_ratio(data, part, 1, 2, prior, crp).total_likelihood
            assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref)), (shift, scale)


@given(case=oracles.rows_and_scalar_prior(min_n=2), cut=st.integers(1, 5))
@example(case=(np.array([[0.7], [-0.4]]), (np.zeros(1), 1.0, 1.0, 1.0)), cut=1)
@example(case=(np.array([[0.3, -1.2]] * 4), (np.zeros(2), 0.5, 2.0, 0.8)), cut=2)
@settings(max_examples=60, deadline=None)
def test_total_likelihood_matches_predictive_chain_difference(case, cut):
    # singleton clusters, p = 1 and duplicate rows (within and across
    # the two clusters) included
    data, args = case
    n1 = min(cut, data.shape[0] - 1)
    labels = [1] * n1 + [2] * (data.shape[0] - n1)
    br = merge_log_ratio(data, Partition(labels), 1, 2, NiwPrior(*args), CrpPrior(1.0))
    parts = [oracles.t_chain_log_marginal(rows, *args)
             for rows in (data[:n1], data[n1:], data)]
    ref = parts[0] + parts[1] - parts[2]
    assert abs(br.total_likelihood - ref) < 1e-9 * max(1.0, sum(map(abs, parts)))


def test_total_invariant_under_joint_rescaling():
    # (Y, mu0, Lambda0) -> (cY, c mu0, c^2 Lambda0) leaves the ratio
    # unchanged: the Jacobian factors cancel because n1 + n2 = n'
    rng = np.random.default_rng(77)
    crp = CrpPrior(1.0)
    p, n1, n2 = 5, 3, 2
    data = rng.standard_normal((n1 + n2, p))
    mu0 = rng.standard_normal(p)
    part = Partition([1] * n1 + [2] * n2)
    base = merge_log_ratio(data, part, 1, 2, NiwPrior(mu0, 1.3, p + 2.5, 1.7), crp)
    scaled = merge_log_ratio(
        3.7 * data, part, 1, 2, NiwPrior(3.7 * mu0, 1.3, p + 2.5, 1.7 * 3.7**2), crp)
    assert scaled.total_likelihood == pytest.approx(
        base.total_likelihood, rel=1e-8, abs=1e-8)


def test_eppf_field_is_crp_size_formula():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((7, 3))
    prior = NiwPrior(np.zeros(3), 1.0, 6.0, 1.0)
    part = Partition([1, 1, 1, 2, 2, 2, 2])
    for alpha in (0.5, 2.0):
        br = merge_log_ratio(data, part, 1, 2, prior, CrpPrior(alpha))
        expect = (math.log(alpha) + math.lgamma(3) + math.lgamma(4)
                  - math.lgamma(7))
        assert br.eppf == pytest.approx(expect, rel=1e-14)


def test_kappa_term_matches_three_factor_form():
    # direct (p/2) [log k/(k+n1) + log k/(k+n2) - log k/(k+n')] layout
    for p, k0, n1, n2 in ((3, 0.5, 1, 1), (40, 2.0, 3, 5), (1000, 31.6, 2, 2)):
        direct = (p / 2.0) * (
            math.log(k0 / (k0 + n1))
            + math.log(k0 / (k0 + n2))
            - math.log(k0 / (k0 + n1 + n2))
        )
        assert kappa_term_log(p, k0, n1, n2) == pytest.approx(direct, rel=1e-12)


def test_kappa_term_bracket_power_identity():
    # exp(-2 * term) equals the p-th power of the size bracket
    p, k0, n1, n2 = 7, 3.0, 2, 1
    bracket = (k0 + n1) * (k0 + n2) / (k0 * (k0 + n1 + n2))
    assert math.exp(-2.0 * kappa_term_log(p, k0, n1, n2)) == pytest.approx(
        bracket**p, rel=1e-12)


def test_kappa_term_edge_cases():
    assert kappa_term_log(10, 2.0, 0, 5) == 0.0
    assert kappa_term_log(10, 2.0, 3, 0) == 0.0
    with pytest.raises(DomainError):
        kappa_term_log(10, 0.0, 1, 1)
    with pytest.raises(DomainError):
        kappa_term_log(10, 1.0, -1, 2)


def test_kappa_term_limit_under_scaled_kappa():
    c1 = 1.3
    for n1, n2 in ((1, 1), (2, 2), (1, 3)):
        lim = -n1 * n2 / (2.0 * c1**2)
        prev = None
        for p in (10**3, 10**4, 10**5, 10**6):
            err = abs(kappa_term_log(p, c1 * math.sqrt(p), n1, n2) - lim)
            if prev is not None:
                assert err < prev
            prev = err
        assert prev < 1e-2 * abs(lim)


def test_det_kappa_term_equals_scalar_factor_telescoping():
    # same value as D(n1) + D(n2) - D(n1+n2) with
    # D(n) = ((nu0 + n)/2) log((kappa0 + n)/kappa0)
    def d_part(k0, nu0, n):
        return (nu0 + n) / 2.0 * math.log((k0 + n) / k0)

    rng = np.random.default_rng(3)
    for _ in range(40):
        k0 = float(rng.uniform(0.2, 50.0))
        nu0 = float(rng.uniform(1.0, 300.0))
        n1 = int(rng.integers(1, 9))
        n2 = int(rng.integers(1, 9))
        tele = d_part(k0, nu0, n1) + d_part(k0, nu0, n2) - d_part(k0, nu0, n1 + n2)
        assert det_kappa_term_log(5, k0, nu0, n1, n2) == pytest.approx(
            tele, rel=1e-10)


def test_det_kappa_term_pinned_value_and_limit():
    p = 10**5
    k0, nu0 = math.sqrt(p), 2.0 * p
    val = det_kappa_term_log(p, k0, nu0, 2, 2)
    assert val == pytest.approx(3.937427271928497, rel=1e-12)
    # robust-prior limit c2 n1 n2 / (2 c1^2) = 4 is approached from below
    assert abs(val - 4.0) < 0.07
    assert det_kappa_term_log(3, 1.0, 2.0, 0, 4) == 0.0
    with pytest.raises(DomainError):
        det_kappa_term_log(3, -1.0, 2.0, 1, 1)


def test_analytic_limits_component_values():
    lim = analytic_limits(RobustPriorSpec(1.0, 2.0), 1, 1)
    assert lim.gamma_limit == pytest.approx(0.5 * math.log(0.5), rel=1e-12)
    assert lim.kappa_limit == pytest.approx(-0.5, rel=1e-12)
    assert lim.det_kappa_limit == pytest.approx(1.0, rel=1e-12)
    assert lim.det_gram_limit == 0.0
    assert lim.total_limit == pytest.approx(0.15342640972002736, rel=1e-10)
    # terms scale with n1 * n2
    lim22 = analytic_limits(RobustPriorSpec(1.0, 2.0), 2, 2)
    assert lim22.total_limit == pytest.approx(4.0 * lim.total_limit, rel=1e-12)
    with pytest.raises(DomainError):
        analytic_limits(RobustPriorSpec(1.0, 1.0), 1, 1)


def _standardized_splits(p, n1, n2, spec, seeds):
    prior = robust_prior(p, spec)
    part = Partition([1] * n1 + [2] * n2)
    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        data = row_standardize(rng.standard_normal((n1 + n2, p)))
        out.append(merge_log_ratio(data, part, 1, 2, prior, CrpPrior(1.0)))
    return out


def test_total_ratio_converges_to_gamma_plus_kappa_limits():
    # Whitened by Lambda0^{-1/2} = I/p, independent standardized rows have
    # a Gram matrix G -> 0.  Both determinant terms are then positive and
    # vanish at O(1/p): term_det_kappa ~ c2 n1 n2 / (c1^2 p) and
    # term_det_gram ~ n1 n2 / p.  So the full ratio approaches the sum of
    # the gamma and kappa limits alone.
    n1 = n2 = 2
    spec = RobustPriorSpec(1.0, 2.0)
    lim = analytic_limits(spec, n1, n2)
    target = lim.gamma_limit + lim.kappa_limit
    medians = []
    for p in (100, 1000, 10000):
        splits = _standardized_splits(p, n1, n2, spec, [100 * p + r for r in range(20)])
        medians.append(float(np.median([abs(br.total_likelihood - target) for br in splits])))
    assert medians[0] > medians[1] > medians[2]
    assert medians[2] < 0.15

    # at p = 1e4; term_det_kappa carries zero-mean cross-cluster noise of
    # the same order, so only its median sits near the leading order
    med_kappa = float(np.median([br.term_det_kappa for br in splits]))
    med_gram = float(np.median([br.term_det_gram for br in splits]))
    assert med_kappa > 0 and med_gram > 0
    assert med_kappa == pytest.approx(spec.c2 * n1 * n2 / (spec.c1**2 * p), rel=0.1)
    assert med_gram == pytest.approx(n1 * n2 / p, rel=0.01)


def test_naive_prior_total_diverges_with_dimension():
    # unit-scale prior with kappa0 = 1 on iid data: the split log ratio
    # keeps growing with p instead of settling at a constant, which is
    # the singleton-shattering attractor of the sampler demo
    medians = []
    for p in (50, 200, 800):
        totals = []
        for r in range(10):
            rng = np.random.default_rng(17 + 100 * p + r)
            data = rng.standard_normal((4, p))
            prior = NiwPrior(np.zeros(p), 1.0, p + 2.0, 1.0)
            part = Partition([1, 1, 2, 2])
            br = merge_log_ratio(data, part, 1, 2, prior, CrpPrior(1.0))
            totals.append(br.total_likelihood)
        medians.append(float(np.median(totals)))
    assert medians[0] < medians[1] < medians[2]
    assert medians[2] > 10.0


def test_projector_residual_matches_svd_oracle():
    rng = np.random.default_rng(23)
    for n, p in ((1, 4), (3, 10), (5, 5), (4, 200)):
        y = rng.standard_normal((n, p)) * rng.uniform(0.2, 3.0)
        assert projector_residual(y) == pytest.approx(
            oracles.projector_residual_svd(y), rel=1e-12)
    # rank-deficient rows leave a unit residual, exactly
    tall = np.vstack([np.eye(2), np.ones((1, 2))])
    assert projector_residual(tall) == 1.0
    for n, p in ((2, 3), (4, 50), (6, 300)):
        y = rng.standard_normal((n, p)) * rng.uniform(0.2, 3.0)
        y[-1] = y[0]
        assert projector_residual(y) == 1.0


def test_projector_residual_shrinks_for_standardized_rows():
    vals = []
    for p in (50, 200, 1000):
        rng = np.random.default_rng(p)
        y = row_standardize(rng.standard_normal((10, p)))
        vals.append(projector_residual(y))
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.05
    with pytest.raises(ValueError):
        projector_residual(np.empty((0, 3)))


@pytest.mark.parametrize("h1, h2", [(1, 3), (3, 2), (2, 1)])
def test_merge_ratio_on_interleaved_three_cluster_partition(h1, h2):
    # members of each cluster are spread through the rows, so every
    # cluster's rows are a non-contiguous pick of the data
    rng = np.random.default_rng(37)
    labels = [1, 2, 3, 1, 3, 2, 2, 1, 3, 1, 2, 3, 3]
    part = Partition(labels)
    lab = np.array(labels)
    for prior in (robust_prior(40, RobustPriorSpec(1.0, 2.0)),
                  NiwPrior(rng.standard_normal(40), 0.8, 44.0, 1.7)):
        data = rng.standard_normal((lab.size, 40)) + lab[:, None]
        before = data.copy()
        br = merge_log_ratio(data, part, h1, h2, prior, CrpPrior(1.0))
        assert np.array_equal(data, before)

        def lm(rows):
            return cluster_log_marginal(data[rows], prior)

        direct = lm(lab == h1) + lm(lab == h2) - lm((lab == h1) | (lab == h2))
        assert abs(br.total_likelihood - direct) <= 1e-10 * max(1.0, abs(direct))


def test_merge_ratio_peak_memory_is_one_copy():
    rng = np.random.default_rng(38)
    p = 10 ** 5
    data = rng.standard_normal((20, p))
    prior = robust_prior(p, RobustPriorSpec(1.0, 2.0))
    part = Partition([1] * 10 + [2] * 10)
    crp = CrpPrior(1.0)
    tracemalloc.start()
    try:
        merge_log_ratio(data, part, 1, 2, prior, crp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * data.nbytes


@pytest.mark.parametrize("n1, n2, p", [(3, 4, 50), (5, 5, 4), (5, 5, 8)])
def test_in_place_ratio_equals_the_copying_path_bitwise(n1, n2, p):
    # p above n takes the n x n side everywhere, p = 4 the p x p side
    # everywhere, and p = 8 the n x n side per cluster and p x p merged
    rng = np.random.default_rng(39)
    part = Partition([1] * n1 + [2] * n2)
    crp = CrpPrior(0.7)
    for prior in (robust_prior(p, RobustPriorSpec(1.0, 2.0)),
                  NiwPrior(rng.standard_normal(p), 0.8, p + 3.5, 1.7 * p)):
        y = rng.standard_normal((n1 + n2, p)) * 3.0 + 2.0
        want = merge_log_ratio(row_standardize(y.copy()), part, 1, 2, prior, crp)
        got = standardized_merge_log_ratio(y.copy(), n1, prior, crp)
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
        y[1] = 5.0
        with pytest.raises(ConstantRow):
            merge_log_ratio(row_standardize(y.copy()), part, 1, 2, prior, crp)
        with pytest.raises(ConstantRow):
            standardized_merge_log_ratio(y.copy(), n1, prior, crp)


@pytest.mark.parametrize("row, error, message", [
    ([1e200, -1e200, 0.0, 5.0], DomainError, "data row 2 overflows its sum of squares"),
    ([1.0, np.nan, 3.0, 4.0], DomainError, "data row 2, column 2 is nan"),
    ([1.0, 2.0, -np.inf, 4.0], DomainError, "data row 2, column 3 is -inf"),
    ([5.0, 5.0, 5.0, 5.0], ConstantRow, "row 2 has zero sample variance"),
], ids=["overflow", "nan", "inf", "constant"])
def test_standardizing_names_the_row_it_rejects(row, error, message):
    # both entry points raise before any result, and without a warning
    prior = robust_prior(4, RobustPriorSpec(1.0, 2.0))
    y = np.random.default_rng(41).standard_normal((4, 4))
    y[1] = row
    with pytest.raises(error, match=message):
        row_standardize(y)
    with pytest.raises(error, match=message):
        standardized_merge_log_ratio(y.copy(), 2, prior, CrpPrior(1.0))


def test_in_place_ratio_input_validation():
    prior = robust_prior(6, RobustPriorSpec(1.0, 2.0))
    crp = CrpPrior(1.0)
    y = np.random.default_rng(40).standard_normal((4, 6))
    for bad, n1 in ((y.astype(np.float32), 2), (y[0], 2), (y.tolist(), 2),
                    (y[:, :5], 2), (y, 0), (y, 4)):
        with pytest.raises(ValueError):
            standardized_merge_log_ratio(bad, n1, prior, crp)


def test_merge_ratio_input_validation():
    prior = NiwPrior(np.zeros(3), 1.0, 6.0, 1.0)
    crp = CrpPrior(1.0)
    part = Partition([1, 1, 2])
    with pytest.raises(ValueError):
        merge_log_ratio(np.zeros(3), part, 1, 2, prior, crp)
    with pytest.raises(ValueError):
        merge_log_ratio(np.zeros((4, 3)), part, 1, 2, prior, crp)
    with pytest.raises(ValueError):
        merge_log_ratio(np.zeros((3, 2)), part, 1, 2, prior, crp)
