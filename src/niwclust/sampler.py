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
and removing a point O(1) (a Schur deletion); all singleton candidates
of a point are scored in one vectorised step.  A memo answers repeated
weights.  Its key is the XOR of fixed random codes of the members
(Zobrist hashing [2]), so removing or adding a point changes a key by
one XOR: a point whose weights all hit the memo costs O(k), and member
tuples are rebuilt only when a point changes cluster.

References
----------
.. [1] R. M. Neal, "Markov chain sampling methods for Dirichlet process
   mixture models", JCGS 9(2), 2000.
.. [2] A. L. Zobrist, "A new hashing method with application for game
   playing", Technical Report 88, University of Wisconsin, 1970.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial, reduce
from math import exp, inf, isfinite, log
from operator import xor
from random import Random
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidConfig, NotPositiveDefinite
from .niw import (
    ClusterView,
    NiwPrior,
    cluster_log_marginal,
    dual_log_marginal,
    factor_gram,
    forward_solve,
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

# The memo holds member sets of at most this many points in total,
# whatever the cluster sizes.  The worst case is all pairs: 2^21 entries
# of a 128-bit int key and a float, about 216 MB (108 bytes an entry
# under tracemalloc).  A 200-sweep chain at n = 400, p = 300 peaks at
# about 0.4 M points in 81k entries and never clears.
_MEMO_BUDGET = 1 << 22

# Seed of the per-point memo codes.  They have their own generator, so the
# chain's draws do not depend on them.
_CODE_SEED = 1970

_SCHUR_FLOOR = 1.0 - 1e-10


def _point_codes(n: int) -> list:
    """One random 128-bit code per point.  The XOR of a member set's codes
    is its memo key; two sets share one with odds of about 2^-128."""
    rng = Random(_CODE_SEED)
    return [rng.getrandbits(128) for _ in range(n)]


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


class _Border(NamedTuple):
    """Append of point i to f's cluster: with g the Gram column of i,
    v = A^-1 g, schur = 1 + g_ii - g^T v and t = 1 - 1^T v."""

    schur: float
    f: _Factor
    i: int
    v: np.ndarray
    t: float

    def totals(self) -> tuple:
        """(log|A|, 1^T A^-1 1) with i appended; schur must not have drifted."""
        f, schur, t = self.f, self.schur, self.t
        return f.log_det + log(schur), f.s + t * t / schur

    def applied(self) -> _Factor:
        schur, f, i, v, t = self
        log_det, s = self.totals()
        m = v.size
        inv = np.empty((m + 1, m + 1))
        inv[:m, :m] = f.inv + np.outer(v, v / schur)
        inv[m, :m] = inv[:m, m] = -v / schur
        inv[m, m] = 1.0 / schur
        b = np.append(f.b - v * (t / schur), t / schur)
        return _Factor(np.append(f.order, i), inv, b, s, log_det)


class _Deletion(NamedTuple):
    """Deletion of the point at position pos of f's cluster:
    d = (A^-1)_pos,pos and schur = 1 / d, or -inf if d <= 0."""

    schur: float
    f: _Factor
    pos: int
    d: float

    def totals(self) -> tuple:
        """(log|A|, 1^T A^-1 1) without the point; schur must not have drifted."""
        f, pos, d = self.f, self.pos, self.d
        return f.log_det + log(d), f.s - f.b[pos] ** 2 / d

    def applied(self) -> _Factor:
        _, f, pos, d = self
        log_det, s = self.totals()
        col = np.delete(f.inv[pos], pos)
        inv = np.delete(np.delete(f.inv, pos, 0), pos, 1) - np.outer(col, col / d)
        b = np.delete(f.b, pos) - col * (f.b[pos] / d)
        return _Factor(np.delete(f.order, pos), inv, b, s, log_det)


class _ChainCache:
    """Per-chain quantities for incremental cluster marginal evaluation.

    Holds the Gram matrix G of the transformed data and the size-indexed
    part of the marginal (``niw.size_constants``), so a cluster's log
    marginal needs only log|I + G_c| and 1^T (I + G_c)^-1 1.  Those
    come from ``factors``, which maps the member tuple of a current
    cluster of two or more points to its ``_Factor``.  Adding a point to
    a cluster is a bordered append to its factor, O(n_c^2); removing one
    is a Schur deletion, O(1) for the marginal.
    A memo answers repeated evaluations.  It is keyed by ``code(idx)``,
    the XOR of the members' ``codes``, so the key of a cluster with a
    point added or removed is one XOR away and a memo hit costs O(1)
    whatever the cluster size.  Only misses read the factors.

    ``move`` updates the factors of both clusters as soon as a point
    changes cluster.  A chain whose points kept moving while the memo
    answered would pay O(n_c^2) a move for factors it never reads; no
    benchmark chain does this, as nearly all moves come in the first
    sweep, where the clusters they touch are evaluated again anyway.
    A cluster with no entry (a fresh pair, or each cluster of a rebuilt
    chain) is built from its Gram block on first use, and one whose
    update drifted is rebuilt from it.  Entries are never mutated, so
    copying the dict snapshots the store.
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
        self.codes = _point_codes(data.shape[0])
        self.factors: dict = {}
        self._memo: dict = {}
        self._memo_size = 0

    def code(self, idx) -> int:
        """Memo key of the member set idx."""
        return reduce(xor, map(self.codes.__getitem__, idx), 0)

    def _remember(self, keys: list, values: list, size: int) -> None:
        """Store values under keys; size is their member sets' total size."""
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
        lower_inv = forward_solve(f.lower, np.eye(ii.size))
        return _Factor(
            ii,
            lower_inv.T @ lower_inv,
            lower_inv.T @ f.z,
            float(f.z @ f.z),
            f.log_det,
        )

    def _border(self, f: _Factor, i: int) -> _Border:
        g = self.gram[i, f.order]
        v = f.inv @ g
        schur = 1.0 + self._diag[i] - float(g @ v)
        return _Border(schur, f, i, v, 1.0 - float(f.b @ g))

    @staticmethod
    def _deletion(f: _Factor, i: int) -> _Deletion:
        pos = int(np.flatnonzero(f.order == i)[0])
        d = float(f.inv[pos, pos])
        return _Deletion(1.0 / d if d > 0.0 else -inf, f, pos, d)

    def _factor(self, idx: tuple) -> _Factor:
        """Factor of current cluster idx, built on first use."""
        f = self.factors.get(idx)
        if f is None:
            f = self.factors[idx] = self._build(idx)
        return f

    def move(self, i: int, members: tuple, rest: tuple, target: tuple, key: tuple):
        """Update the factors: i left members (now rest) and joined target (now
        key).  A drifted update is rebuilt from the new cluster's Gram block."""
        for old, new, step in ((members, rest, self._deletion),
                               (target, key, self._border)):
            f = self.factors.pop(old, None)
            if f is not None and len(new) > 1:
                out = step(f, i)
                drifted = _drifted(out.schur)
                self.factors[new] = self._build(new) if drifted else out.applied()

    # ------------------------------------------------------- marginals

    def log_marginal(self, idx: tuple) -> float:
        """Log marginal of a current cluster."""
        if len(idx) == 1:
            return self.single[idx[0]]
        key = self.code(idx)
        value = self._memo.get(key)
        if value is None:
            value = self._factor_value(idx)
            self._remember([key], [value], len(idx))
        return value

    def _factor_value(self, idx: tuple) -> float:
        f = self._factor(idx)
        return float(self._value(len(idx), f.log_det, f.s))

    def _changed(self, idx: tuple, step, i: int, key: int, size: int) -> float:
        """Log marginal of current cluster idx with i appended or deleted
        (step is _border or _deletion), memoised under key; size is the new
        cluster's.  A drifted factor is rebuilt from its Gram block once."""
        out = step(self._factor(idx), i)
        if _drifted(out.schur):
            f = self.factors[idx] = self._build(idx)
            out = step(f, i)
            if not 0.0 < out.schur < inf:
                raise NotPositiveDefinite(
                    f"Schur complement {out.schur} in a cluster of {len(idx)}"
                )
        value = float(self._value(size, *out.totals()))
        self._remember([key], [value], size)
        return value

    def removed(self, members: tuple, i: int, key: int) -> float:
        """Log marginal of current cluster members (three or more points)
        without i, whose code is key."""
        value = self._memo.get(key)
        if value is None:
            value = self._changed(members, self._deletion, i, key, len(members) - 1)
        return value

    def grown(self, i: int, labs: list, clusters: dict, code: dict, home=None) -> list:
        """Log marginals of clusters[lab] plus i for each lab in labs.

        code[lab] is the code of clusters[lab].  clusters[home], if given,
        is the current cluster of i itself (code[home] leaves i out): its
        value is that of clusters[home].
        The singleton clusters that miss the memo are scored together in
        closed form from their 2 x 2 blocks.
        """
        memo = self._memo
        ci = self.codes[i]
        values, at, keys = [], [], []
        for lab in labs:
            key = code[lab] ^ ci
            value = memo.get(key)
            if value is None:
                idx = clusters[lab]
                if len(idx) == 1:
                    at.append(len(values))
                    keys.append(key)
                elif lab == home:
                    value = self._factor_value(idx)
                    self._remember([key], [value], len(idx))
                else:
                    value = self._changed(idx, self._border, i, key, len(idx) + 1)
            values.append(value)
        if at:
            js = [clusters[labs[k]][0] for k in at]
            a = 1.0 + self._diag[js]
            c = 1.0 + self._diag[i]
            g = self.gram[i, js]
            det = a * c - g * g
            scored = self._value(2, np.log(det), (a + c - 2.0 * g) / det).tolist()
            for k, value in zip(at, scored):
                values[k] = value
            self._remember(keys, scored, 2 * len(at))
        return values


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

    Each cluster's memo code is taken once at sweep entry and then
    updated by one XOR per removal or addition; member tuples are
    rebuilt only for a point that changes cluster.
    """
    data = np.asarray(data, dtype=float)
    chain = state.chain
    if chain is None or (chain.data is not data and not np.array_equal(chain.data, data)):
        chain = state.chain = _ChainCache(data, state.prior)
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
    codes = chain.codes
    code = {lab: chain.code(idx) for lab, idx in clusters.items()}
    try:
        for i in range(n):
            ci = codes[i]
            h = labels[i]
            members = clusters[h]
            size = len(members)
            if size == 1:
                del clusters[h], log_ml[h], code[h]
            elif size == 2:
                j = members[0] if members[1] == i else members[1]
                clusters[h] = (j,)
                log_ml[h] = chain.single[j]
                code[h] = codes[j]
            else:
                # clusters[h] keeps i until i leaves; only the code drops it
                code[h] ^= ci
                log_ml[h] = chain.removed(members, i, code[h])

            candidates = sorted(clusters)
            values = chain.grown(i, candidates, clusters, code, h if size > 2 else None)
            log_w = [
                log(len(clusters[lab])) + value - log_ml[lab]
                for lab, value in zip(candidates, values)
            ]
            if size > 2:
                k = bisect_left(candidates, h)
                log_w[k] = log(size - 1) + values[k] - log_ml[h]
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
                value = values[pick]
            else:
                lab = max(clusters) + 1 if clusters else 1
                value = chain.single[i]
            if lab != h:
                if size > 2:
                    k = bisect_left(members, i)
                    clusters[h] = members[:k] + members[k + 1 :]
                rest = clusters.get(h, ())
                target = clusters.get(lab, ())
                k = bisect_left(target, i)
                key = clusters[lab] = target[:k] + (i,) + target[k:]
                chain.move(i, members, rest, target, key)
            else:
                clusters[h] = members  # i stays where it was
            code[lab] = code.get(lab, 0) ^ ci
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
    """Chain summary: co-clustering, k trace and mode, post-burnin labels."""

    co_clustering: np.ndarray
    k_trace: tuple
    k_mode: int
    label_trace: tuple


def run_chain(
    data,
    prior: NiwPrior,
    crp: CrpPrior,
    sweeps: int,
    burnin: int,
    seed: int,
    init: str = "single",
    debug: bool = False,
) -> PosteriorSummary:
    """Run one chain and summarize the post-burnin sweeps.

    Deterministic given the seed.  k_trace records every sweep; the
    co-clustering matrix averages pairwise same-cluster indicators over
    the sweeps after burnin, and label_trace keeps the label vector of
    each of those sweeps.
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
            kept.append(tuple(state.labels))
    co /= sweeps - burnin
    best = max(k_counts.values())
    k_mode = min(k for k, c in k_counts.items() if c == best)
    return PosteriorSummary(
        co_clustering=co,
        k_trace=tuple(k_trace),
        k_mode=k_mode,
        label_trace=tuple(kept),
    )
