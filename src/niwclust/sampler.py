"""Collapsed Gibbs sampler for the DP mixture of Gaussians.

Sequential-scan collapsed Gibbs in the shape of Neal's Algorithm 3 [1]:
component parameters are integrated out and each observation is
reassigned in index order given all the others.  The reassignment
weights are marginal-likelihood ratios

    existing cluster c:  n_c  * exp[log_ml(c + {i}) - log_ml(c)]
    new cluster:         alpha * exp[log_ml({i})]

normalized in log space with max-subtraction.  There is no separately
coded predictive density; the weights come straight from the same
marginal the rest of the package evaluates, via a per-chain cache of
the transformed Gram matrix and of each cluster's inverse of I + G_c.
After an O(n^2 p) setup, one weight costs O(n_c^2) (a bordered append)
and removing a point O(1) (a Schur deletion); a memo answers repeated
weights and all singleton candidates of a point are scored in one
vectorised step.

References
----------
.. [1] R. M. Neal, "Markov chain sampling methods for Dirichlet process
   mixture models", JCGS 9(2), 2000.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from math import exp, inf, isfinite, log
from typing import NamedTuple, Optional

import numpy as np
from scipy.linalg import solve_triangular

from .errors import InvalidConfig, NotPositiveDefinite
from .niw import (
    ClusterView,
    NiwPrior,
    cluster_log_marginal,
    dual_log_marginal,
    factor_gram,
    gram_matrix,
    size_constants,
    transform_data,
)
from .partition import CrpPrior

__all__ = [
    "SamplerState",
    "PosteriorSummary",
    "init_state",
    "gibbs_sweep",
    "run_chain",
]

# The memo holds at most this many key indices in total (tuple slots of
# 8 bytes each, about 32 MB), whatever the cluster sizes.
_MEMO_BUDGET = 1 << 22

_SCHUR_FLOOR = 1.0 - 1e-10


def _drifted(schur: float) -> bool:
    """A Schur complement of I + G is >= 1 in exact arithmetic, so a
    smaller or non-finite one from an updated factor shows drift."""
    return not _SCHUR_FLOOR <= schur < inf


class _Factor(NamedTuple):
    """Inverse of A = I + G_c for one cluster.

    inv is A^-1 with rows and columns in the order of ``order``,
    b = A^-1 1, s = 1^T b and log_det = log|A|.  An entry is never
    mutated; an update builds a new one.
    """

    order: np.ndarray
    inv: np.ndarray
    b: np.ndarray
    s: float
    log_det: float


class _ChainCache:
    """Per-chain quantities for incremental cluster marginal evaluation.

    Holds the Gram matrix G of the transformed data and the size-indexed
    part of the marginal (``niw.size_constants``), so a cluster's log
    marginal needs only log|I + G_c| and 1^T (I + G_c)^-1 1.  Those
    come from ``factors``, keyed by the member tuple of every current
    cluster of two or more points.  Adding a point to a cluster is a
    bordered append to its ``_Factor``, O(n_c^2); removing one is a
    Schur deletion, O(1) for the marginal.
    A memo keyed by member tuple answers repeated evaluations.

    Moving a point between clusters does not touch the factors at once:
    the store records (base factor, pending moves) and replays the moves
    when an evaluation next needs that cluster's factor, so chains that
    live on memo hits do no factor work.  A record whose pending moves
    outnumber its members has its base dropped (None) and is rebuilt
    from its Gram block instead.  Records are never mutated, so copying
    the dict snapshots the store.
    """

    def __init__(self, data: np.ndarray, prior: NiwPrior):
        self.data = data
        self.prior = prior
        self.gram = gram_matrix(transform_data(data, prior))
        # log marginal of nh points from log|I + G_c| and 1^T (I + G_c)^-1 1
        self._value = partial(
            dual_log_marginal, size_constants(prior, data.shape[0]), prior
        )
        self._diag = self.gram.diagonal().copy()
        one = 1.0 + self._diag
        self.single = self._value(1, np.log(one), 1.0 / one).tolist()
        self.factors: dict = {}
        self._memo: dict = {}
        self._memo_size = 0

    def _remember(self, keys: list, values: list) -> None:
        size = sum(map(len, keys))
        if self._memo_size + size > _MEMO_BUDGET:
            self._memo.clear()
            self._memo_size = 0
        self._memo.update(zip(keys, values))
        self._memo_size += size

    # ---------------------------------------------------------- factors

    def _build(self, idx: tuple) -> _Factor:
        """Factor of idx from one Cholesky factor of its Gram block."""
        ii = np.asarray(idx, dtype=np.intp)
        f = factor_gram(self.gram[ii[:, None], ii])
        lower_inv = solve_triangular(
            f.lower, np.eye(ii.size), lower=True, check_finite=False
        )
        return _Factor(
            ii,
            lower_inv.T @ lower_inv,
            lower_inv.T @ f.z,
            float(f.z @ f.z),
            f.log_det,
        )

    def _border(self, f: _Factor, i: int):
        """(Schur complement, f, v, t) for appending i to f's cluster."""
        g = self.gram[i, f.order]
        v = f.inv @ g
        return 1.0 + self._diag[i] - float(g @ v), f, v, 1.0 - float(f.b @ g)

    @staticmethod
    def _deletion(f: _Factor, i: int):
        """(Schur complement, f, position of i, (A^-1)_ii) for deleting i."""
        pos = int(np.flatnonzero(f.order == i)[0])
        d = float(f.inv[pos, pos])
        return (1.0 / d if d > 0.0 else -inf), f, pos, d

    @staticmethod
    def _appended(schur, f, v, t, i) -> _Factor:
        m = v.size
        inv = np.empty((m + 1, m + 1))
        inv[:m, :m] = f.inv + np.outer(v, v / schur)
        inv[m, :m] = inv[:m, m] = -v / schur
        inv[m, m] = 1.0 / schur
        return _Factor(
            np.append(f.order, i),
            inv,
            np.append(f.b - v * (t / schur), t / schur),
            f.s + t * t / schur,
            f.log_det + log(schur),
        )

    @staticmethod
    def _deleted(schur, f, pos, d) -> _Factor:
        col = np.delete(f.inv[pos], pos)
        return _Factor(
            np.delete(f.order, pos),
            np.delete(np.delete(f.inv, pos, 0), pos, 1) - np.outer(col, col / d),
            np.delete(f.b, pos) - col * (f.b[pos] / d),
            f.s - f.b[pos] ** 2 / d,
            f.log_det + log(d),
        )

    def _factor(self, idx: tuple) -> _Factor:
        """Factor of current cluster idx, with its pending moves applied."""
        f = self.factors[idx]
        if isinstance(f, _Factor):
            return f
        f, moves = f
        for j, added in moves:
            out = self._border(f, j) if added else self._deletion(f, j)
            if _drifted(out[0]):
                f = None
                break
            f = self._appended(*out, j) if added else self._deleted(*out)
        if f is None:
            f = self._build(idx)
        self.factors[idx] = f
        return f

    def _stable(self, idx: tuple, step):
        """Apply step to idx's factor; rebuild the factor once on drift."""
        out = step(self._factor(idx))
        if _drifted(out[0]):
            f = self.factors[idx] = self._build(idx)
            out = step(f)
            if not 0.0 < out[0] < inf:
                raise NotPositiveDefinite(
                    f"Schur complement {out[0]} in a cluster of {len(idx)}"
                )
        return out

    def move(self, i: int, members: tuple, rest: tuple, target: tuple, key: tuple):
        """Record that i left members (now rest) and joined target (now key)."""
        if len(rest) > 1:
            self.factors[rest] = self._defer(self.factors[members], i, False, len(rest))
        if len(target) > 1:
            self.factors[key] = self._defer(self.factors[target], i, True, len(key))
        elif target:
            self.factors[key] = (None, ())
        self.factors.pop(members, None)
        self.factors.pop(target, None)

    @staticmethod
    def _defer(record, i: int, added: bool, size: int):
        base, moves = (record, ()) if isinstance(record, _Factor) else record
        if base is None or len(moves) >= size:
            return (None, ())
        return (base, moves + ((i, added),))

    # ------------------------------------------------------- marginals

    def log_marginal(self, idx: tuple) -> float:
        """Log marginal of a current cluster; adds it to the factors."""
        if len(idx) == 1:
            return self.single[idx[0]]
        self.factors.setdefault(idx, (None, ()))
        value = self._memo.get(idx)
        if value is None:
            value = self._factor_value(idx)
            self._remember([idx], [value])
        return value

    def _factor_value(self, idx: tuple) -> float:
        f = self._factor(idx)
        return float(self._value(len(idx), f.log_det, f.s))

    def removed(self, members: tuple, i: int):
        """(members without i, its log marginal) for a current cluster."""
        k = bisect_left(members, i)
        rest = members[:k] + members[k + 1 :]
        if len(rest) == 1:
            return rest, self.single[rest[0]]
        value = self._memo.get(rest)
        if value is None:
            _, f, pos, d = self._stable(members, lambda f: self._deletion(f, i))
            value = float(
                self._value(len(rest), f.log_det + log(d), f.s - f.b[pos] ** 2 / d)
            )
            self._remember([rest], [value])
        return rest, value

    def grown(self, i: int, idxs: list):
        """Member tuples and log marginals of each cluster in idxs plus i.

        The singleton clusters that miss the memo are scored together in
        closed form from their 2 x 2 blocks.
        """
        keys, values, at, pairs = [], [], [], []
        for idx in idxs:
            if len(idx) == 1:
                j = idx[0]
                key = (j, i) if j < i else (i, j)
                value = self._memo.get(key)
                if value is None:
                    at.append(len(keys))
                    pairs.append(key)
            else:
                k = bisect_left(idx, i)
                key = idx[:k] + (i,) + idx[k:]
                value = self._memo.get(key)
                if value is None:
                    value = self._grow(idx, i, key)
            keys.append(key)
            values.append(value)
        if at:
            js = [idxs[k][0] for k in at]
            a = 1.0 + self._diag[js]
            c = 1.0 + self._diag[i]
            g = self.gram[i, js]
            det = a * c - g * g
            scored = self._value(2, np.log(det), (a + c - 2.0 * g) / det).tolist()
            for k, value in zip(at, scored):
                values[k] = value
            self._remember(pairs, scored)
        return keys, values

    def _grow(self, idx: tuple, i: int, key: tuple) -> float:
        if key in self.factors:
            # key is the cluster i was just taken out of
            value = self._factor_value(key)
        else:
            schur, f, _, t = self._stable(idx, lambda f: self._border(f, i))
            value = float(
                self._value(len(key), f.log_det + log(schur), f.s + t * t / schur)
            )
        self._remember([key], [value])
        return value


@dataclass
class SamplerState:
    """Mutable state of one collapsed Gibbs chain.

    labels holds one positive integer per observation (canonical 1..k
    at sweep boundaries), clusters maps each label to its sorted member
    index tuple, and log_ml caches each cluster's log marginal.
    """

    labels: list
    clusters: dict
    log_ml: dict
    crp: CrpPrior
    prior: NiwPrior
    rng: np.random.Generator
    sweep_index: int = 0
    chain: Optional[_ChainCache] = field(default=None, repr=False)

    def k(self) -> int:
        return len(self.clusters)

    def check_consistency(self, data, tol: float = 1e-8) -> None:
        """Debug check: caches must match full recomputation."""
        rebuilt = {}
        for i, lab in enumerate(self.labels):
            rebuilt.setdefault(lab, []).append(i)
        if {k: tuple(v) for k, v in rebuilt.items()} != self.clusters:
            raise AssertionError("clusters inconsistent with labels")
        for lab, idx in self.clusters.items():
            view = ClusterView(np.asarray(data, dtype=float)[list(idx)])
            direct = cluster_log_marginal(view, self.prior)
            cached = self.log_ml[lab]
            if abs(direct - cached) > tol * max(1.0, abs(direct)):
                raise AssertionError(
                    f"cluster {lab} marginal cache off: {cached} vs {direct}"
                )


def init_state(
    data,
    prior: NiwPrior,
    crp: CrpPrior,
    seed: int,
    init: str = "single",
) -> SamplerState:
    """Fresh sampler state.

    init="single" starts with all observations in one cluster,
    init="singletons" with one cluster per observation.  The posterior
    has attractors at both k=1 and k=n, so each start is informative.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 1:
        raise InvalidConfig(f"data must be a nonempty 2-d matrix, got {data.shape}")
    if init not in ("single", "singletons"):
        raise InvalidConfig(f"unknown init {init!r}")
    n = data.shape[0]
    chain = _ChainCache(data, prior)
    if init == "single":
        labels = [1] * n
        clusters = {1: tuple(range(n))}
    else:
        labels = list(range(1, n + 1))
        clusters = {i + 1: (i,) for i in range(n)}
    log_ml = {lab: chain.log_marginal(idx) for lab, idx in clusters.items()}
    return SamplerState(
        labels=labels,
        clusters=clusters,
        log_ml=log_ml,
        crp=crp,
        prior=prior,
        rng=np.random.default_rng(seed),
        sweep_index=0,
        chain=chain,
    )


def _canonicalize(state: SamplerState) -> None:
    remap = {}
    for lab in state.labels:
        if lab not in remap:
            remap[lab] = len(remap) + 1
    state.labels = [remap[lab] for lab in state.labels]
    state.clusters = {remap[lab]: idx for lab, idx in state.clusters.items()}
    state.log_ml = {remap[lab]: v for lab, v in state.log_ml.items()}


def gibbs_sweep(state: SamplerState, data) -> SamplerState:
    """One full sequential scan over the observations.

    Numeric failures, a non-finite reassignment weight among them, roll
    the state back to its value at sweep entry (labels, clusters, log_ml,
    the RNG and the chain's factors) before re-raising, so a retried
    sweep draws what the failed one would have.  Labels are canonical
    on return.
    """
    data = np.asarray(data, dtype=float)
    chain = state.chain
    if chain is None or (chain.data is not data and not np.array_equal(chain.data, data)):
        chain = state.chain = _ChainCache(data, state.prior)
        chain.factors = {
            idx: (None, ()) for idx in state.clusters.values() if len(idx) > 1
        }
    labels = state.labels
    clusters = state.clusters
    log_ml = state.log_ml
    alpha = state.crp.alpha
    n = len(labels)

    snapshot = (
        list(labels),
        dict(clusters),
        dict(log_ml),
        dict(chain.factors),
        state.rng.bit_generator.state,
    )
    try:
        for i in range(n):
            h = labels[i]
            members = clusters[h]
            if len(members) == 1:
                rest = ()
                del clusters[h]
                del log_ml[h]
            else:
                rest, log_ml[h] = chain.removed(members, i)
                clusters[h] = rest

            candidates = sorted(clusters)
            grown, values = chain.grown(i, [clusters[lab] for lab in candidates])
            log_w = [
                log(len(clusters[lab])) + value - log_ml[lab]
                for lab, value in zip(candidates, values)
            ]
            log_w.append(log(alpha) + chain.single[i])
            if not isfinite(sum(log_w)):
                raise FloatingPointError(
                    f"non-finite reassignment weight for observation {i}"
                )

            top = max(log_w)
            probs = [exp(w - top) for w in log_w]
            u = state.rng.random() * sum(probs)
            acc = 0.0
            pick = len(candidates)
            for j, pr in enumerate(probs):
                acc += pr
                if u < acc:
                    pick = j
                    break
            if pick < len(candidates):
                lab = candidates[pick]
                target, key, value = clusters[lab], grown[pick], values[pick]
            else:
                lab = max(clusters) + 1 if clusters else 1
                target, key, value = (), (i,), chain.single[i]
            if lab != h:
                chain.move(i, members, rest, target, key)
            clusters[lab] = key
            log_ml[lab] = value
            labels[i] = lab
    except (ArithmeticError, NotPositiveDefinite, np.linalg.LinAlgError):
        (state.labels, state.clusters, state.log_ml, chain.factors,
         state.rng.bit_generator.state) = snapshot
        raise
    _canonicalize(state)
    state.sweep_index += 1
    return state


@dataclass(frozen=True)
class PosteriorSummary:
    """Chain summary: co-clustering frequencies, k trace and its mode."""

    co_clustering: np.ndarray
    k_trace: tuple
    k_mode: int
    label_trace: Optional[tuple] = None


def run_chain(
    data,
    prior: NiwPrior,
    crp: CrpPrior,
    sweeps: int,
    burnin: int,
    seed: int,
    init: str = "single",
    keep_labels: bool = False,
    debug: bool = False,
) -> PosteriorSummary:
    """Run one chain and summarize the post-burnin sweeps.

    Deterministic given the seed.  k_trace records every sweep; the
    co-clustering matrix averages pairwise same-cluster indicators over
    the sweeps after burnin.  keep_labels additionally stores the label
    vector of every post-burnin sweep.
    """
    if burnin < 0 or sweeps <= burnin:
        raise InvalidConfig(f"need sweeps > burnin >= 0, got {sweeps}, {burnin}")
    data = np.asarray(data, dtype=float)
    state = init_state(data, prior, crp, seed, init=init)
    n = data.shape[0]
    co = np.zeros((n, n))
    k_trace = []
    kept = []
    k_counts: dict = {}
    for sweep in range(sweeps):
        gibbs_sweep(state, data)
        if debug:
            state.check_consistency(data)
        k_trace.append(state.k())
        if sweep >= burnin:
            lab = np.asarray(state.labels)
            co += lab[:, None] == lab[None, :]
            k_counts[state.k()] = k_counts.get(state.k(), 0) + 1
            if keep_labels:
                kept.append(tuple(state.labels))
    co /= sweeps - burnin
    best = max(k_counts.values())
    k_mode = min(k for k, c in k_counts.items() if c == best)
    return PosteriorSummary(
        co_clustering=co,
        k_trace=tuple(k_trace),
        k_mode=k_mode,
        label_trace=tuple(kept) if keep_labels else None,
    )
