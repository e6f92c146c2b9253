"""The (log|I + G|, s) kernel on both sides, and triangular solves."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from niwclust.niw import forward_solve, gram_parts


@given(n=st.integers(1, 12), p=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_both_sides_of_the_kernel_agree(n, p, seed):
    # the n x n and the p x p factorization of the same determinant, at
    # unit scale, whichever side is the smaller; log|I + G| also against
    # LAPACK's LU determinant
    y = np.random.default_rng(seed).standard_normal((n, p))
    gram = np.eye(n) + y @ y.T
    sign, log_det = np.linalg.slogdet(gram)
    ref = (log_det, np.linalg.solve(gram, np.ones(n)).sum())
    assert sign == 1.0
    for dual in (True, False):
        for a, b in zip(gram_parts(y, dual=dual), ref):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), (dual, a, b)


def gram_cholesky(rng, n):
    # the factor every dual-form evaluation solves with: I + G = L L^T
    y = rng.standard_normal((n, n + 5)) * rng.uniform(0.1, 3.0)
    return np.linalg.cholesky(y @ y.T + np.eye(n))


def test_forward_solve_matches_lapack():
    rng = np.random.default_rng(4)
    # z = L^-1 1 of factor_gram: the same bits as LAPACK for every limits size
    for n in list(range(1, 30)) * 3 + [50] * 5:
        lower = gram_cholesky(rng, n)
        z = forward_solve(lower, np.ones(n))
        assert np.array_equal(z, solve_triangular(lower, np.ones(n), lower=True)), n
    # L^-1 of the sampler's factors, and larger vectors: rounding-level only
    for n in (2, 10, 29, 50, 100, 200):
        lower = gram_cholesky(rng, n)
        for rhs in (np.eye(n), np.ones(n)):
            ref = solve_triangular(lower, rhs, lower=True)
            err = np.linalg.norm(forward_solve(lower, rhs) - ref) / np.linalg.norm(ref)
            assert err <= 1e-15, (n, rhs.ndim, err)
