"""Cluster marginal likelihood: primal and dual forms, priors, transforms."""

import time
import tracemalloc
from math import lgamma, log, pi

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from niwclust.errors import ConstantRow, DomainError
from niwclust.niw import (
    NiwPrior,
    RobustPriorSpec,
    as_observations,
    cluster_log_marginal,
    robust_prior,
    row_standardize,
    transform_data,
)
from niwclust.ratio import projector_residual
import oracles


def random_prior(rng, p):
    nu0 = p + 0.5 + 6.0 * rng.random()
    kappa0 = float(np.exp(rng.normal()))
    mu0 = rng.standard_normal(p)
    return NiwPrior(mu0, kappa0, nu0, float(np.exp(rng.normal())))


# ------------------------------------------------------ pinned values

def test_single_point_matches_student_t_closed_form():
    # df nu0-p+1 = 3, scale^2 = 2/3, evaluated at the prior mean
    prior = NiwPrior(np.zeros(1), 1.0, 3.0, 1.0)
    mine = cluster_log_marginal([[0.0]], prior)
    scale2 = 2.0 / 3.0
    exact = lgamma(2.0) - lgamma(1.5) - 0.5 * log(3.0 * pi * scale2)
    assert abs(mine - exact) < 1e-12
    assert mine == pytest.approx(-0.79815, abs=1e-5)


def test_p1_marginal_matches_quadrature():
    prior = NiwPrior(np.full(1, 0.2), 2.0, 4.5, 1.7)
    ys = [[0.3], [-1.1]]
    mine = cluster_log_marginal(ys, prior)
    ref = oracles.niw_marginal_quad_p1([0.3, -1.1], 0.2, 2.0, 4.5, 1.7)
    assert abs(mine - ref) / abs(ref) < 1e-6


def test_p2_marginal_matches_frozen_quadrature():
    mine = oracles.full_scale_log_marginal(
        np.array([oracles.QUAD_P2_Y]), np.array(oracles.QUAD_P2_MU0),
        oracles.QUAD_P2_KAPPA0, oracles.QUAD_P2_NU0, oracles.QUAD_P2_LAMBDA0)
    assert abs(mine - oracles.QUAD_P2_LOG) / abs(oracles.QUAD_P2_LOG) < 1e-6


def test_marginal_matches_predictive_chain_small_p():
    rng = np.random.default_rng(7)
    for p in (1, 2, 3):
        for n in (1, 2, 5, 9):
            prior = random_prior(rng, p)
            ys = rng.standard_normal((n, p)) + rng.normal(scale=2.0)
            mine = cluster_log_marginal(ys, prior)
            ref = oracles.t_chain_log_marginal(ys, prior.mu0, prior.kappa0,
                                               prior.nu0, prior.lambda0)
            assert abs(mine - ref) / max(1.0, abs(ref)) < 1e-9, (p, n)


@given(case=oracles.rows_and_scalar_prior())
@example(case=(np.array([[0.7]]), (np.zeros(1), 1.0, 1.0, 1.0)))
@example(case=(np.array([[0.3, -1.2]] * 3), (np.zeros(2), 0.5, 2.0, 0.8)))
@settings(max_examples=60, deadline=None)
def test_both_forms_match_predictive_chain(case):
    # n = 1, p = 1 and duplicate rows included
    ys, args = case
    prior = NiwPrior(*args)
    ref = oracles.t_chain_log_marginal(ys, *args)
    for form in ("primal", "dual"):
        mine = cluster_log_marginal(ys, prior, form=form)
        assert abs(mine - ref) / max(1.0, abs(ref)) < 1e-9, form


# ------------------------------------------------- primal/dual bridge

def test_primal_and_dual_agree():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        p = int(rng.integers(2, 60))
        prior = random_prior(rng, p)
        ys = rng.standard_normal((n, p)) * (0.3 + rng.random())
        primal = cluster_log_marginal(ys, prior, form="primal")
        dual = cluster_log_marginal(ys, prior, form="dual")
        assert abs(primal - dual) < 1e-8 * max(1.0, abs(primal))


@pytest.mark.parametrize("n, p", [(3, 500), (7, 8), (8, 8), (9, 8), (30, 3)])
def test_auto_form_factors_the_smaller_side(n, p):
    # n < p is the n x n side; at n = p the centred p x p side, which
    # keeps far-off means exact
    ys = np.random.default_rng(9).standard_normal((n, p)) + 10.0
    prior = NiwPrior(np.zeros(p), 1.0, p + 4.0, 1.0)
    side, other = ("dual", "primal") if n < p else ("primal", "dual")
    auto = cluster_log_marginal(ys, prior)
    assert auto == cluster_log_marginal(ys, prior, form=side)
    assert auto != cluster_log_marginal(ys, prior, form=other)


@pytest.mark.parametrize("n, p", [(30, 3), (8, 8), (10, 20), (12, 30), (5, 40)])
def test_auto_form_is_exact_far_from_the_prior(n, p):
    # rows far from mu0 and far above sqrt(lambda0) in scale, against
    # Murphy's formula at 50 digits; the wide shapes at shift 1000, scale
    # 1e5 used to raise NotPositiveDefinite
    prior = NiwPrior(np.zeros(p), 1.0, p + 4.0, 1.0)
    z = np.random.default_rng(0).standard_normal((n, p))
    for shift in (0.0, 10.0, 1000.0):
        for scale in (1.0, 1e3, 1e5):
            ys = (z + shift) * scale
            ref = oracles.mp_log_marginal(ys, prior.mu0, 1.0, p + 4.0, 1.0)
            mine = cluster_log_marginal(ys, prior)
            assert abs(mine - ref) <= 1e-10 * abs(ref), (shift, scale, mine, ref)


def test_overflowing_mean_on_the_p_x_p_side_is_rejected():
    # equal rows of 1e160: the centred scatter is 0 and finite, but
    # n |L^-1 m|^2 overflows, which would score the cluster -inf
    prior = NiwPrior(np.zeros(2), 1.0, 4.0, 1.0)
    rows = np.full((4, 2), 1e160)
    for form in ("auto", "primal", "dual"):
        with pytest.raises(DomainError, match="data row 1 overflows"):
            cluster_log_marginal(rows, prior, form=form)


def test_dual_is_fast_and_finite_at_p_10000():
    rng = np.random.default_rng(10)
    ys = row_standardize(rng.standard_normal((2, 10 ** 4)))
    prior = robust_prior(10 ** 4, RobustPriorSpec(1.0, 2.0))
    t0 = time.time()
    val = cluster_log_marginal(ys, prior, form="dual")
    assert time.time() - t0 < 0.1
    assert np.isfinite(val)


def test_empty_cluster_marginal_is_zero():
    prior = NiwPrior(np.zeros(3), 1.0, 5.0, 1.0)
    empty = np.empty((0, 3))
    assert cluster_log_marginal(empty, prior) == 0.0
    assert cluster_log_marginal(empty, prior, form="dual") == 0.0


def test_empty_cluster_must_match_the_prior_width():
    prior = NiwPrior(np.zeros(3), 1.0, 5.0, 1.0)
    with pytest.raises(ValueError, match="data width 5 does not match prior p=3"):
        cluster_log_marginal(np.empty((0, 5)), prior)


def test_unknown_form_rejected():
    prior = NiwPrior(np.zeros(2), 1.0, 4.0, 1.0)
    with pytest.raises(ValueError):
        cluster_log_marginal([[0.0, 1.0]], prior, form="banana")


def test_rows_must_be_2d_with_a_column():
    prior = NiwPrior(np.zeros(2), 1.0, 4.0, 1.0)
    for takes_rows in (lambda y: cluster_log_marginal(y, prior),
                       lambda y: transform_data(y, prior),
                       projector_residual, row_standardize):
        with pytest.raises(ValueError, match=r"2-d .*shape \(\)"):
            takes_rows(np.float64(1.0))
        with pytest.raises(ValueError, match=r"2-d .*shape \(2, 2, 2\)"):
            takes_rows(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError, match=r"column.*shape \(3, 0\)"):
            takes_rows(np.zeros((3, 0)))


@pytest.mark.parametrize("form", ["primal", "dual"])
def test_vector_is_one_observation(form):
    rng = np.random.default_rng(16)
    prior = random_prior(rng, 4)
    y = rng.standard_normal(4)
    one = cluster_log_marginal(y, prior, form=form)
    assert one == cluster_log_marginal(y[None, :], prior, form=form)


# ------------------------------------------------------------ priors

def test_robust_prior_fields():
    prior = robust_prior(400, RobustPriorSpec(1.5, 3.0))
    assert prior.kappa0 == pytest.approx(1.5 * 20.0)
    assert prior.nu0 == pytest.approx(1200.0)
    assert prior.lambda0 == pytest.approx(160000.0)
    assert isinstance(prior.lambda0, float)
    assert np.all(prior.mu0 == 0.0)
    assert prior.lambda0_log_det == pytest.approx(400 * np.log(160000.0))
    # every prior is scalar (a 0-d array or np.float64 becomes a float),
    # so the dual form evaluates for any valid prior, also on narrow data
    # where "auto" picks the primal form
    view = np.random.default_rng(15).standard_normal((6, 3))
    for other in (robust_prior(3, RobustPriorSpec(1.5, 3.0)),
                  NiwPrior(np.ones(3), 0.8, 4.5, np.array(2.5)),
                  NiwPrior(np.zeros(3), 1.0, 5.0, np.float64(0.3))):
        assert isinstance(other.lambda0, float)
        dual = cluster_log_marginal(view, other, form="dual")
        primal = cluster_log_marginal(view, other, form="primal")
        assert dual == pytest.approx(primal, rel=1e-10)


def test_robust_prior_spec_validation():
    with pytest.raises(DomainError):
        RobustPriorSpec(0.0, 2.0)
    with pytest.raises(DomainError):
        RobustPriorSpec(1.0, 1.0)  # nu0 would not dominate p
    with pytest.raises(DomainError, match="c1 must be positive and finite"):
        RobustPriorSpec(np.inf, 2.0)
    with pytest.raises(DomainError, match="c2 must be finite"):
        RobustPriorSpec(1.0, np.inf)
    with pytest.raises(DomainError):
        robust_prior(1, RobustPriorSpec(1.0, 2.0))


def test_prior_validation():
    with pytest.raises(DomainError):
        NiwPrior(np.zeros(3), 0.0, 5.0, 1.0)
    with pytest.raises(DomainError):
        NiwPrior(np.zeros(3), 1.0, 1.5, 1.0)  # nu0 <= p-1
    with pytest.raises(DomainError):
        NiwPrior(np.zeros(3), 1.0, 5.0, -2.0)


def test_matrix_scale_is_rejected():
    # Lambda0 is always lambda0 * I; a matrix or a vector is an error
    for lam in (np.eye(3), np.ones(3)):
        with pytest.raises(DomainError, match=r"lambda0 .*got shape \(3,"):
            NiwPrior(np.zeros(3), 1.0, 5.0, lam)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_prior_is_rejected_by_name(bad):
    # caught at construction, not later as a Gram overflow of some data row
    with pytest.raises(DomainError, match=r"mu0\[1\] is .*mu0 must be finite"):
        NiwPrior(np.array([0.0, bad]), 1.0, 5.0, 1.0)
    if bad > 0:
        with pytest.raises(DomainError, match="lambda0 must be positive and finite"):
            NiwPrior(np.zeros(2), 1.0, 5.0, bad)
    with pytest.raises(DomainError, match="kappa0 must be positive and finite"):
        NiwPrior(np.zeros(2), bad, 5.0, 1.0)
    with pytest.raises(DomainError, match="nu0 must be finite"):
        NiwPrior(np.zeros(2), 1.0, bad, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape, cells", [
    ((3, 100_000), [(2, 6), (1, 99_998)]),  # one-row blocks
    ((300, 1_000), [(139, 999), (140, 2), (196, 0)]),  # blocks of 65 rows
])
def test_first_non_finite_cell_is_named_in_row_major_order(bad, shape, cells):
    # the check scans row blocks of at most 2^16 cells; the first bad
    # cell lies past the first block, and another precedes it in column
    # order
    y = np.zeros(shape)
    for cell in cells:
        y[cell] = bad
    r, c = min(cells)
    with pytest.raises(DomainError, match=rf"^data row {r + 1}, column {c + 1} is {bad}; "
                                          "observations must be finite$"):
        as_observations(y)
    assert as_observations(np.empty((0, shape[1]))).shape == (0, shape[1])


def test_transform_data_whitens():
    rng = np.random.default_rng(12)
    p = 5
    prior = random_prior(rng, p)
    ys = rng.standard_normal((7, p))
    yt = transform_data(ys, prior)
    # undo: yt * sqrt(lambda0) + mu0 recovers the rows
    assert np.allclose(yt * np.sqrt(prior.lambda0) + prior.mu0, ys,
                       rtol=1e-9, atol=1e-9)


# one case; the id [True] is kept from when a full-Lambda0 case ran too
@pytest.mark.parametrize("scalar", [True])
def test_transform_data_rows_match_full_transform_bitwise(scalar):
    # non-contiguous, out of order, with a repeat
    rng = np.random.default_rng(14)
    p = 17
    prior = random_prior(rng, p)
    ys = rng.standard_normal((30, p)) * 3.0
    before = ys.copy()
    for rows in (np.array([29, 0, 7, 3, 7, 12]), np.arange(1, 30, 4), np.arange(30)):
        picked = transform_data(ys, prior, rows)
        assert picked.shape == (rows.size, p)
        assert np.array_equal(picked, transform_data(ys, prior)[rows])
    assert np.array_equal(ys, before)


# ----------------------------------------------------- standardizing

def test_row_standardize_example():
    out = row_standardize(np.array([[1.0, 2.0, 3.0]]))
    assert np.allclose(out, [[-1.0, 0.0, 1.0]])


def test_row_standardize_identity_and_idempotence():
    rng = np.random.default_rng(13)
    y = rng.standard_normal((5, 100))
    z = row_standardize(y)
    assert np.allclose((z ** 2).sum(axis=1), 99.0, atol=1e-9)
    assert np.allclose(z.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(row_standardize(z), z, atol=1e-12)


def _two_pass_standardize(y):
    """The formula row_standardize used before it worked a row at a time."""
    centered = y - y.mean(axis=1, keepdims=True)
    sd = np.sqrt((centered ** 2).sum(axis=1) / (y.shape[1] - 1))
    return centered / sd[:, None]


@given(y=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=2,
                                                 max_side=300),
                    elements=st.floats(-1e6, 1e6)))
@example(y=np.array([[1.0, 2.0, 3.0]]))
@example(y=np.random.default_rng(15).standard_normal((3, 1031)) * 1e-3 + 7.0)
@example(y=np.array([[0.1, 0.1, 0.1]]))
@settings(max_examples=80, deadline=None)
def test_row_standardize_bitwise_equals_two_pass_formula(y):
    before = y.copy()
    centered = y - y.mean(axis=1, keepdims=True)
    sumsq = (centered ** 2).sum(axis=1)
    normal = sumsq >= np.finfo(float).tiny
    if (np.ptp(y, axis=1) == 0).any():
        # a row of equal entries is constant, whatever its mean rounds to
        with pytest.raises(ConstantRow):
            row_standardize(y)
    elif (~normal & (np.ptp(centered, axis=1) == 0)).any():
        # equal centred entries too small to square are the residue of a
        # rounded mean: the row is constant
        with pytest.raises(ConstantRow):
            row_standardize(y)
    else:
        out = row_standardize(y)
        # a row whose squares underflow is rescaled first, so only its
        # mean and spread are held to the definition
        assert np.array_equal(out[normal], _two_pass_standardize(y[normal]))
        p = y.shape[1]
        assert np.allclose(out[~normal].mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose((out[~normal] ** 2).sum(axis=1), p - 1, rtol=1e-12)
    # it works on a copy, even when it raises
    assert np.array_equal(y, before)


def test_row_standardize_peak_memory_is_one_copy():
    y = np.random.default_rng(16).standard_normal((20, 10 ** 5))
    tracemalloc.start()
    try:
        row_standardize(y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * y.nbytes


def test_row_standardize_rejects_constant_rows():
    with pytest.raises(ConstantRow, match="row 1 has zero sample variance"):
        row_standardize(np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]]))


@pytest.mark.parametrize("scale", [1e-150, 1e-200, 1e-300, 1e-320])
def test_row_standardize_rescales_a_tiny_spread(scale):
    # the squares of a row 1e-200 apart underflow to 0, yet the row is not
    # constant: it standardizes as the same row at unit scale does
    y = np.array([[1.0, 2.0, 3.0], [4.0, 4.0, 6.0]]) * scale
    out = row_standardize(y)
    assert np.allclose(out, row_standardize(y / scale), rtol=1e-12, atol=1e-15)
    assert np.allclose(out[0], [-1.0, 0.0, 1.0], rtol=1e-12, atol=1e-15)
    with pytest.raises(ConstantRow, match="row 2 has zero sample variance"):
        row_standardize(np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]]) * scale)
