"""Synthetic data generators for the experiments.

All randomness flows through numpy's PCG64 via default_rng, seeded
explicitly; the generator identity is recorded in output metadata so a
fixed spec reproduces the same matrix on any build.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .partition import Partition

__all__ = ["GenSpec", "generate", "RNG_NAME"]

RNG_NAME = "numpy-PCG64"

_KINDS = ("single_gaussian", "two_cluster_mixture")


@dataclass(frozen=True)
class GenSpec:
    """What to generate.

    kind "single_gaussian" draws n iid N(0, I_p) rows (the null case);
    "two_cluster_mixture" draws from the balanced mixture
    0.5 N(+s/2 * 1, I) + 0.5 N(-s/2 * 1, I) with s = separation, so the
    two component means differ by `separation` in every coordinate.
    """

    kind: str
    n: int
    p: int
    separation: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidSpec(f"unknown kind {self.kind!r}")
        if self.n < 2 or self.p < 2:
            raise InvalidSpec(f"need n >= 2 and p >= 2, got n={self.n}, p={self.p}")
        if not 0 <= self.separation < np.inf:
            raise InvalidSpec(
                f"separation must be finite and >= 0, got {self.separation}"
            )


def generate(spec: GenSpec):
    """Draw a data matrix and the true component partition.

    Returns
    -------
    (data, truth) : ((n, p) ndarray, Partition)
        Deterministic given the generation spec.  truth records the component of
        every row even when separation = 0 makes components
        indistinguishable.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "single_gaussian":
        n_comp, comps = 1, np.zeros(spec.n, dtype=int)
    else:
        n_comp, comps = 2, rng.integers(0, 2, size=spec.n)
    offsets = (np.arange(n_comp) - (n_comp - 1) / 2.0) * spec.separation
    data = rng.standard_normal((spec.n, spec.p)) + offsets[comps][:, None]
    return data, Partition(comps + 1)
