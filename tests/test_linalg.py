"""Log-determinants of symmetric positive definite matrices."""

import numpy as np
import pytest

from niwclust.errors import NotPositiveDefinite
from niwclust.niw import spd_log_det


def random_spd(rng, dim, jitter=1.0):
    b = rng.standard_normal((dim, dim))
    return b @ b.T + jitter * np.eye(dim)


def test_spd_log_det_matches_slogdet():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 5, 12, 40):
        a = random_spd(rng, dim)
        sign, ref = np.linalg.slogdet(a)
        assert sign == 1.0
        assert spd_log_det(a) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_not_positive_definite_raises():
    with pytest.raises(NotPositiveDefinite):
        spd_log_det(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(NotPositiveDefinite):
        spd_log_det(np.zeros((3, 3)))
    with pytest.raises(NotPositiveDefinite):
        ones = np.ones((2, 2))
        spd_log_det(ones)  # rank 1, pivot collapses
