"""Dense symmetric linear algebra in log space.

Every determinant in this package is eventually raised to a power of
order (nu0 + n) / 2, which overflows raw determinants already at a few
hundred dimensions.  All determinant work therefore goes through
Cholesky factors and stays in log space.
"""

import numpy as np
from numpy.typing import NDArray

from .errors import NotPositiveDefinite

__all__ = [
    "CholFactor",
    "cholesky",
]

# Pivot below PIVOT_RTOL * max(diag) counts as numerically singular.
# A fixed relative threshold keeps the PD test stable across platforms.
PIVOT_RTOL = 1e-12


def _as_sym_matrix(m) -> NDArray[np.float64]:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.allclose(a, a.T, rtol=1e-10, atol=0.0):
        raise ValueError("matrix is not symmetric")
    return a


class CholFactor:
    """Lower-triangular Cholesky factor of a positive definite matrix.

    Parameters
    ----------
    lower : (dim, dim) ndarray
        Lower-triangular factor L with L @ L.T equal to the source matrix.

    Notes
    -----
    Instances are safe to share read-only: no method mutates the factor.
    """

    __slots__ = ("lower",)

    def __init__(self, lower: NDArray[np.float64]):
        self.lower = np.asarray(lower, dtype=float)

    def log_det(self) -> float:
        """log-determinant of the factored matrix, 2 * sum(log diag(L))."""
        return float(2.0 * np.log(np.diag(self.lower)).sum())


def cholesky(m) -> CholFactor:
    """Factor a symmetric positive definite matrix as L @ L.T.

    Parameters
    ----------
    m : (dim, dim) array_like
        Symmetric matrix.

    Returns
    -------
    CholFactor

    Raises
    ------
    NotPositiveDefinite
        If the factorization fails or any pivot falls below
        ``PIVOT_RTOL * max(diag(m))``.  A failure here usually signals a
        degenerate scatter matrix or an invalid prior scale.
    """
    a = _as_sym_matrix(m)
    max_diag = float(np.max(np.diag(a)))
    if not np.isfinite(max_diag) or max_diag <= 0.0:
        raise NotPositiveDefinite("matrix diagonal is not positive")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None
    pivots = np.diag(lower) ** 2
    if np.min(pivots) < PIVOT_RTOL * max_diag:
        raise NotPositiveDefinite(
            f"pivot {np.min(pivots):.3e} below tolerance "
            f"{PIVOT_RTOL * max_diag:.3e}"
        )
    return CholFactor(lower)
