"""Partitions of observation indices and the CRP prior ratio.

Labels are kept in canonical form: positive integers 1..k numbered by
first appearance in the label vector.  Canonical form makes partition
values comparable and keeps golden outputs deterministic.
"""

from dataclasses import dataclass
from math import comb, lgamma, log

import numpy as np

from .errors import DomainError, SameLabel, UnknownLabel

__all__ = [
    "Partition",
    "CrpPrior",
    "eppf_log_ratio",
    "adjusted_rand_index",
]


class Partition:
    """A partition of n items into k labeled clusters.

    Parameters
    ----------
    labels : iterable of int
        One cluster label per item.  Any hashable labels are accepted
        and are canonicalized to 1..k by first appearance, e.g.
        (7, 7, 3) becomes (1, 1, 2).
    """

    __slots__ = ("labels", "k", "sizes")

    def __init__(self, labels):
        raw = list(labels)
        if not raw:
            raise ValueError("partition needs at least one item")
        remap = {}
        canon = []
        for lab in raw:
            if lab not in remap:
                remap[lab] = len(remap) + 1
            canon.append(remap[lab])
        self.labels = tuple(canon)
        self.k = len(remap)
        sizes = [0] * self.k
        for lab in canon:
            sizes[lab - 1] += 1
        self.sizes = tuple(sizes)

    @property
    def n(self) -> int:
        return len(self.labels)

    def size(self, h: int) -> int:
        self._check_label(h)
        return self.sizes[h - 1]

    def members(self, h: int) -> np.ndarray:
        """Indices of the items carrying label h."""
        self._check_label(h)
        return np.flatnonzero(np.asarray(self.labels) == h)

    def _check_label(self, h) -> None:
        if not (isinstance(h, (int, np.integer)) and 1 <= h <= self.k):
            raise UnknownLabel(f"label {h!r} not in 1..{self.k}")

    def __eq__(self, other):
        return isinstance(other, Partition) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"Partition({list(self.labels)})"


@dataclass(frozen=True)
class CrpPrior:
    """Chinese restaurant process prior with concentration 0 < alpha < inf."""

    alpha: float

    def __post_init__(self):
        if not 0 < self.alpha < np.inf:
            raise DomainError(f"alpha must be positive and finite, got {self.alpha}")


def eppf_log_ratio(part: Partition, h1: int, h2: int, prior: CrpPrior) -> float:
    """log of the CRP EPPF ratio Pi(psi) / Pi(psi') across merging h1, h2.

    The CRP EPPF is alpha^k Gamma(alpha)/Gamma(alpha+n) * prod_h
    Gamma(n_h); everything except the two clusters' factors cancels, so
    the ratio is alpha * Gamma(n_h1) * Gamma(n_h2) / Gamma(n_h1 + n_h2).
    It depends only on the two sizes and alpha, never on p or the data.
    """
    if h1 == h2:
        raise SameLabel(f"cannot merge label {h1} with itself")
    n1 = part.size(h1)
    n2 = part.size(h2)
    return log(prior.alpha) + lgamma(n1) + lgamma(n2) - lgamma(n1 + n2)


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected agreement between two partitions of the same items.

    Accepts Partition values or plain label sequences; the index only
    counts pairs, so raw labels need no canonical form.  Returns 1.0 for
    identical partitions (including the all-one-cluster edge case where
    the correction denominator vanishes).
    """
    la = a.labels if isinstance(a, Partition) else tuple(a)
    lb = b.labels if isinstance(b, Partition) else tuple(b)
    if len(la) != len(lb):
        raise ValueError("partitions cover different numbers of items")
    n = len(la)
    if n == 0:
        raise ValueError("partitions need at least one item")
    contingency = {}
    for x, y in zip(la, lb):
        contingency[(x, y)] = contingency.get((x, y), 0) + 1
    rows = {}
    cols = {}
    for (x, y), c in contingency.items():
        rows[x] = rows.get(x, 0) + c
        cols[y] = cols.get(y, 0) + c
    sum_cells = sum(comb(c, 2) for c in contingency.values())
    sum_rows = sum(comb(c, 2) for c in rows.values())
    sum_cols = sum(comb(c, 2) for c in cols.values())
    pairs = comb(n, 2)
    expected = sum_rows * sum_cols / pairs if pairs else 0.0
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_cells - expected) / (max_index - expected)
