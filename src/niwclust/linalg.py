"""Dense symmetric linear algebra in log space.

Every determinant in this package is eventually raised to a power of
order (nu0 + n) / 2, which overflows raw determinants already at a few
hundred dimensions.  All determinant work therefore goes through
Cholesky factors and stays in log space.  The module also provides a
power-iteration spectral norm for the projector diagnostics.
"""

import warnings

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import solve_triangular

from .errors import NoConvergenceWarning, NotPositiveDefinite

__all__ = [
    "CholFactor",
    "cholesky",
    "log_det",
    "spectral_norm",
]

# Pivot below PIVOT_RTOL * max(diag) counts as numerically singular.
# A fixed relative threshold keeps the PD test stable across platforms.
PIVOT_RTOL = 1e-12

_SPECTRAL_TOL = 1e-8


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

    __slots__ = ("lower", "dim")

    def __init__(self, lower: NDArray[np.float64]):
        lower = np.asarray(lower, dtype=float)
        self.lower = lower
        self.dim = lower.shape[0]

    def log_det(self) -> float:
        """log-determinant of the factored matrix, 2 * sum(log diag(L))."""
        return float(2.0 * np.log(np.diag(self.lower)).sum())

    def solve(self, b: NDArray[np.float64]) -> NDArray[np.float64]:
        """Solve (L L^T) x = b by forward and back substitution."""
        b = np.asarray(b, dtype=float)
        z = solve_triangular(self.lower, b, lower=True, check_finite=False)
        return solve_triangular(self.lower.T, z, lower=False, check_finite=False)

    def reconstruct(self) -> NDArray[np.float64]:
        """Return L @ L.T."""
        return self.lower @ self.lower.T


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


def log_det(m) -> float:
    """log|m| for symmetric positive definite m, via the Cholesky diagonal.

    The raw determinant is never formed.
    """
    return cholesky(m).log_det()


def spectral_norm(m) -> float:
    """Largest singular value of a rectangular matrix.

    Power iteration on m^T m with relative tolerance 1e-8 and an
    iteration cap of 10 * max(shape).  Only the top singular value is
    ever needed here and the matrices are small (n by n after the
    Woodbury reduction), so a full SVD would be wasted work.

    If the iteration hits the cap, the best estimate is returned and a
    ``NoConvergenceWarning`` is issued.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if not a.any():
        return 0.0

    cols = a.shape[1]
    u = a.T @ (a @ np.ones(cols))
    norm_u = np.linalg.norm(u)
    if norm_u == 0.0:
        # ones vector is annihilated; fall back to a fixed pseudo-random probe
        u = np.random.default_rng(12345).standard_normal(cols)
        norm_u = np.linalg.norm(u)
    u /= norm_u

    cap = 10 * max(a.shape)
    sigma = 0.0
    for _ in range(cap):
        w = a.T @ (a @ u)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        sigma_new = np.sqrt(norm_w)  # ||m^T m u|| -> sigma^2 for unit u
        u = w / norm_w
        if abs(sigma_new - sigma) <= _SPECTRAL_TOL * max(sigma_new, 1e-300):
            return float(sigma_new)
        sigma = sigma_new
    warnings.warn(
        f"power iteration did not converge in {cap} iterations",
        NoConvergenceWarning,
        stacklevel=2,
    )
    return float(sigma)
