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
After an O(n^2 p) setup, which also fills an n x n table of every
pair's log marginal (n^2 floats, as the Gram matrix), one weight costs
O(n_c^2) (a bordered append) and removing a point O(1) (a Schur
deletion).  One routine, ``_Scan.weights``, gives all the weights of a
point: its singleton candidates are read from the pair table in one
numpy pass over arrays indexed by label, each larger cluster is a
bordered append, and the weight of the point's own cluster is the log
marginal that cluster already holds.

A sweep that moves no point leaves the partition and every weight as
they were, so the next sweep differs only in its uniforms.  Such a sweep
records, for each point, the interval of its own cluster on its
cumulative weight scale.  run_chain then stay-tests the upcoming sweeps
against the record: it draws the uniforms of up to _BLOCK // n sweeps in
one call, and a sweep in which every point falls inside its interval is
answered by that vectorised test, O(n) numpy work, with no weight
evaluated.  This is the scalar rule exactly, given the weights of the
recorded sweep.  The uniforms from the first sweep that moves a point on
are given back and that sweep is scanned; the sweeps of an answered run
share one label tuple in label_trace.  gibbs_sweep itself always scans.

References
----------
.. [1] R. M. Neal, "Markov chain sampling methods for Dirichlet process
   mixture models", JCGS 9(2), 2000.
"""

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from math import inf, isfinite, log
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidConfig, NotPositiveDefinite
from .niw import (
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

__all__ = ["PosteriorSummary", "run_chain"]

_SCHUR_FLOOR = 1.0 - 1e-10

# A settled chain's upcoming sweeps are stay-tested in blocks of at most
# this many uniforms (32 KB), drawn in one call.
_BLOCK = 4096

# The pair table is evaluated this many rows at a time.
_ROWS = 64


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
        b = np.empty(m + 1)
        b[:m] = f.b - v * (t / schur)
        b[m] = t / schur
        order = np.empty(m + 1, dtype=f.order.dtype)
        order[:m] = f.order
        order[m] = i
        return _Factor(order, inv, b, s, log_det)


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
        keep = np.arange(f.b.size - 1)  # every position but pos
        keep[pos:] += 1
        col = f.inv[pos].take(keep)
        inv = f.inv.take(keep, 0).take(keep, 1) - np.outer(col, col / d)
        b = f.b.take(keep) - col * (f.b[pos] / d)
        return _Factor(f.order.take(keep), inv, b, s, log_det)


class _ChainCache:
    """Per-chain quantities for incremental cluster marginal evaluation.

    Holds the Gram matrix G of the transformed data and the size-indexed
    part of the marginal (``niw.size_constants``), so a cluster's log
    marginal needs only log|I + G_c| and 1^T (I + G_c)^-1 1.  Those
    come from ``factors``, which maps the member tuple of a current
    cluster of two or more points to its ``_Factor``.  Adding a point to
    a cluster is a bordered append to its factor, O(n_c^2); removing one
    is a Schur deletion, O(1) for the marginal.  Each singleton's
    marginal is held in ``single``, and each pair's in the n x n table
    ``pair``: pair[i, j] is the log marginal of {i, j}, in closed form
    from its 2 x 2 Gram block.  The table costs n^2 floats, as G does.

    ``_changed`` returns the update it scored, and ``_Scan.place``
    applies it when the point moves.  A cluster with no entry (a fresh
    pair, or each cluster of a rebuilt chain) is built from its Gram
    block on first use, and one whose update drifted is rebuilt from it.
    Entries are never mutated, so copying the dict snapshots the store.
    """

    def __init__(self, data: np.ndarray, prior: NiwPrior):
        self.data = data
        self.gram = gram_matrix(transform_data(data, prior))
        # log marginal of nh points from log|I + G_c| and 1^T (I + G_c)^-1 1;
        # sizes up to 2 at least, for the pair table
        self._value = partial(
            dual_log_marginal, size_constants(prior, max(data.shape[0], 2)), prior
        )
        self._diag = self.gram.diagonal().copy()
        one = 1.0 + self._diag
        self.single = self._value(1, np.log(one), 1.0 / one).tolist()
        self.pair = self._pairs()
        self.factors: dict = {}

    def _pairs(self, rows: int = _ROWS) -> np.ndarray:
        """The pair table, evaluated rows at a time so that its
        temporaries stay O(rows n).  An entry that is not finite is caught
        by the weight check of the sweep that reads it."""
        n = self._diag.size
        a = 1.0 + self._diag
        pair = np.empty((n, n))
        with np.errstate(all="ignore"):
            for lo in range(0, n, rows):
                c = a[lo : lo + rows, None]
                g = self.gram[lo : lo + rows]
                det = a * c - g * g
                pair[lo : lo + rows] = self._value(
                    2, np.log(det), (a + c - 2.0 * g) / det
                )
        return pair

    # ---------------------------------------------------------- factors

    def _build(self, idx: tuple) -> _Factor:
        """Factor of idx from one Cholesky factor of its Gram block."""
        ii = np.asarray(idx, dtype=np.intp)
        lower, log_det, z = factor_gram(self.gram[ii[:, None], ii])
        lower_inv = forward_solve(lower, np.eye(ii.size))
        return _Factor(
            ii,
            lower_inv.T @ lower_inv,
            lower_inv.T @ z,
            float(z @ z),
            log_det,
        )

    def _border(self, f: _Factor, i: int) -> _Border:
        g = self.gram[i, f.order]
        v = f.inv @ g
        schur = 1.0 + self._diag[i] - float(g @ v)
        return _Border(schur, f, i, v, 1.0 - float(f.b @ g))

    @staticmethod
    def _deletion(f: _Factor, i: int) -> _Deletion:
        pos = f.order.tolist().index(i)
        d = float(f.inv[pos, pos])
        return _Deletion(1.0 / d if d > 0.0 else -inf, f, pos, d)

    def _factor(self, idx: tuple) -> _Factor:
        """Factor of current cluster idx, built on first use."""
        f = self.factors.get(idx)
        if f is None:
            f = self.factors[idx] = self._build(idx)
        return f

    # ------------------------------------------------------- marginals

    def log_marginal(self, idx: tuple) -> float:
        """Log marginal of a current cluster."""
        if len(idx) == 1:
            return self.single[idx[0]]
        f = self._factor(idx)
        return float(self._value(len(idx), f.log_det, f.s))

    def _changed(self, idx: tuple, step, i: int, size: int) -> tuple:
        """(log marginal, update) of current cluster idx with i appended or
        deleted: step is _border or _deletion, and update the _Border or
        _Deletion it returned.  size is the new cluster's.  A drifted factor
        is rebuilt from its Gram block once."""
        out = step(self._factor(idx), i)
        if _drifted(out.schur):
            f = self.factors[idx] = self._build(idx)
            out = step(f, i)
            if not 0.0 < out.schur < inf:
                raise NotPositiveDefinite(
                    f"Schur complement {out.schur} in a cluster of {len(idx)}"
                )
        return float(self._value(size, *out.totals())), out


class _Scan:
    """The partition of one sweep, with arrays indexed by label.

    size and log_ml hold each current cluster's size and log marginal; a
    label that names no cluster has size 0.  first[c] is the member of c
    while c is a singleton (it is read for no other cluster).  multi holds
    the labels of the clusters of two or more points, and clusters (the
    state's dict, updated in place) their member tuples.  A sweep adds at
    most one label per point, each one past the largest, so labels stay
    below ``new``, the new-cluster slot.  Its size is 1, so that the
    candidates, size.nonzero()[0], are the current labels, sorted, and
    then it; they are kept until some cluster appears or empties.
    updates maps the label of each cluster whose factor the last
    ``weights`` call updated (i's own and each larger candidate) to that
    update, for ``place`` to apply.
    """

    def __init__(self, chain: _ChainCache, clusters: dict, log_ml: dict, alpha: float):
        self.chain = chain
        self.clusters = clusters
        self.new = max(clusters, default=0) + len(chain.single) + 1
        self.size = np.zeros(self.new + 1, dtype=np.intp)
        self.log_ml = np.zeros(self.new + 1)
        self.first = np.zeros(self.new + 1, dtype=np.intp)
        for lab, idx in clusters.items():
            self.size[lab] = len(idx)
            self.log_ml[lab] = log_ml[lab]
            self.first[lab] = idx[0]
        self.size[self.new] = 1
        self.multi = {lab for lab, idx in clusters.items() if len(idx) > 1}
        self.log_alpha = log(alpha)
        self.cands = None

    def weights(self, i: int, h: int) -> tuple:
        """Take point i out of its cluster h and weigh where it may go.

        Returns (cands, value, log_w, home).  cands lists the labels of
        the clusters without i, sorted, then the new-cluster slot.  For
        each candidate, value holds its log marginal with i added (for h
        itself, the one h holds with i) and log_w its log weight,
        log n_c + value - log_ml.  home is the position of h in cands (of
        the new-cluster slot if i was alone).  A singleton is scored from
        the pair table, in one numpy pass for all of them, and a larger
        cluster by a bordered append to its factor.
        """
        chain = self.chain
        size = int(self.size[h])
        own = self.log_ml[h]
        updates = self.updates = {}
        if size == 1:
            self.size[h] = 0
            self.cands = None
        elif size == 2:
            members = self.clusters[h]
            j = members[0] if members[1] == i else members[1]
            self.size[h] = 1
            self.first[h] = j
            self.log_ml[h] = chain.single[j]
        else:
            self.size[h] = size - 1
            self.log_ml[h], updates[h] = chain._changed(
                self.clusters[h], chain._deletion, i, size - 1
            )
        if self.cands is None:
            self.cands = self.size.nonzero()[0]
        cands = self.cands
        value = chain.pair[i].take(self.first.take(cands))
        log_w = value - self.log_ml.take(cands)  # log 1 + value - log_ml for a singleton
        for lab in self.multi:
            if lab != h:
                k = cands.searchsorted(lab)
                idx = self.clusters[lab]
                v, updates[lab] = chain._changed(idx, chain._border, i, len(idx) + 1)
                value[k] = v
                log_w[k] = log(len(idx)) + v - self.log_ml[lab]
        if size == 1:
            home = cands.size - 1
        else:
            home = int(cands.searchsorted(h))
            value[home] = own
            log_w[home] = log(size - 1) + own - self.log_ml[h]
        value[-1] = chain.single[i]
        log_w[-1] = self.log_alpha + chain.single[i]
        return cands, value, log_w, home

    def place(self, i: int, h: int, lab: int, value: float) -> None:
        """Put i, which weights took out of h, into cluster lab, whose log
        marginal with i is value; lab may be h or a label naming no cluster.
        A move stores the factors of the updates weights computed for h and
        lab; one whose Schur complement drifted is built from the new
        cluster's Gram block instead."""
        if lab != h:
            clusters = self.clusters
            members = clusters[h]
            k = bisect_left(members, i)
            rest = members[:k] + members[k + 1 :]
            target = clusters.get(lab, ())
            k = bisect_left(target, i)
            key = clusters[lab] = target[:k] + (i,) + target[k:]
            if rest:
                clusters[h] = rest
            else:
                del clusters[h]
            if len(rest) < 2:
                self.multi.discard(h)
            if len(key) > 1:
                self.multi.add(lab)
            else:
                self.first[lab] = i
            chain = self.chain
            for old, new, c in ((members, rest, h), (target, key, lab)):
                chain.factors.pop(old, None)
                out = self.updates.pop(c, None)
                if out is not None:
                    drifted = _drifted(out.schur)
                    chain.factors[new] = chain._build(new) if drifted else out.applied()
        if not self.size[lab]:
            self.cands = None
        self.size[lab] += 1
        self.log_ml[lab] = value


class _Stay(NamedTuple):
    """What a sweep that moved no point leaves for the stay test.

    Point i stayed because its scaled uniform fell in [lo[i], hi[i]) of
    the cumulative weights, whose total was tot[i].  The record holds for
    the state the sweep left, until the next sweep moves a point; only
    run_chain, which edits nothing in between, tests it.
    """

    lo: np.ndarray
    hi: np.ndarray
    tot: np.ndarray

    def count(self, state, limit: int) -> int:
        """Answer up to limit upcoming sweeps of state in which every point stays.

        Returns the number answered.  Those sweeps advance sweep_index, and
        the RNG is left after their uniforms.  The uniforms of up to
        _BLOCK // n sweeps are drawn in one call.  At the first sweep that
        moves a point, its rows and those after are given back and the
        record is dropped from state, so the scan that follows draws that
        sweep's uniforms itself.
        """
        rng = state.rng
        n = self.tot.size
        done = 0
        while done < limit:
            rows = min(max(1, _BLOCK // n), limit - done)
            before = rng.bit_generator.state
            x = rng.random((rows, n)) * self.tot
            stays = ((self.lo <= x) & (x < self.hi)).all(axis=1)
            if not stays.all():
                j = int(stays.argmin())
                rng.bit_generator.state = before
                rng.random(j * n)
                done += j
                state.stay = None
                break
            done += rows
        state.sweep_index += done
        return done


@dataclass
class SamplerState:
    """Mutable state of one collapsed Gibbs chain.

    labels holds one positive integer per observation (canonical 1..k
    at sweep boundaries), clusters maps each label to its sorted member
    index tuple, and log_ml caches each cluster's log marginal.  stay is
    the stay-test record of the last sweep if it moved no point; only
    run_chain reads it.
    """

    labels: list
    clusters: dict
    log_ml: dict
    crp: CrpPrior
    prior: NiwPrior
    rng: np.random.Generator
    sweep_index: int = 0
    chain: Optional[_ChainCache] = field(default=None, repr=False)
    stay: Optional[_Stay] = field(default=None, repr=False)

    def k(self) -> int:
        return len(self.clusters)

    def check_consistency(self, data, tol: float = 1e-8) -> None:
        """Debug check: caches must match full recomputation."""
        rebuilt = {}
        for i, lab in enumerate(self.labels):
            rebuilt.setdefault(lab, []).append(i)
        if {k: tuple(v) for k, v in rebuilt.items()} != self.clusters:
            raise AssertionError("clusters inconsistent with labels")
        data = np.asarray(data, dtype=float)
        for lab, idx in self.clusters.items():
            direct = cluster_log_marginal(data[list(idx)], self.prior)
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


def _canonicalize(state: SamplerState, log_ml: list) -> None:
    """Relabel state 1..k in order of first appearance; log_ml is indexed
    by the labels before."""
    remap = {}
    for lab in state.labels:
        if lab not in remap:
            remap[lab] = len(remap) + 1
    state.labels = [remap[lab] for lab in state.labels]
    state.log_ml = {remap[lab]: log_ml[lab] for lab in state.clusters}
    state.clusters = {remap[lab]: idx for lab, idx in state.clusters.items()}


def gibbs_sweep(state: SamplerState, data) -> SamplerState:
    """One full sequential scan over the observations.

    Numeric failures, a non-finite reassignment weight among them, roll
    the state back to its value at sweep entry (labels, clusters, log_ml,
    the RNG and the chain's factors) before re-raising, so a retried
    sweep draws what the failed one would have.  Labels are canonical
    on return.

    The sweep draws its n uniforms, one a point, in one call, and scans
    every point: a direct loop of gibbs_sweep calls scans every sweep.  A
    sweep that moves no point leaves a stay record in state.stay (else
    None), which only run_chain tests.

    The scan fills a ``_Scan`` of the partition at entry.  For each point
    in turn, ``_Scan.weights`` gives the log weights of its candidates,
    which are normalized, summed and searched in numpy, and
    ``_Scan.place`` records the pick.  The weight of a point's own
    cluster is the log marginal that cluster holds at the point's turn,
    so a point that stays leaves log_ml as it found it.  Member tuples
    are rebuilt only for a point that changes cluster.  data must have
    one row per label.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] != len(state.labels):
        raise InvalidConfig(
            f"data must have one row per label: {len(state.labels)} labels, "
            f"data of shape {data.shape}"
        )
    chain = state.chain
    if chain is None or (chain.data is not data and not np.array_equal(chain.data, data)):
        chain = state.chain = _ChainCache(data, state.prior)
    state.stay = None
    labels = state.labels
    n = len(labels)
    rng_state = state.rng.bit_generator.state
    us = state.rng.random(n).tolist()
    snapshot = (
        list(labels),
        dict(state.clusters),
        dict(state.log_ml),
        dict(chain.factors),
        rng_state,
    )
    # per point: the cumulative weights below and at its own slot, and their total
    bounds = []
    moved = False
    scan = _Scan(chain, state.clusters, state.log_ml, state.crp.alpha)
    try:
        for i in range(n):
            h = labels[i]
            cands, value, log_w, home = scan.weights(i, h)
            if not isfinite(log_w.sum()):
                raise FloatingPointError(
                    f"non-finite reassignment weight for observation {i}"
                )
            cum = np.exp(log_w - log_w.max()).cumsum()
            k = cands.size - 1  # the clusters; cands[k] is the new-cluster slot
            pick = min(int(cum.searchsorted(us[i] * cum[-1], "right")), k)
            moved = moved or pick != home
            # the min above clamps the last slot, so its interval is open above
            bounds.append((
                cum[home - 1] if home else -inf,
                cum[home] if home < k else inf,
                cum[-1],
            ))
            if pick < k:
                lab = int(cands[pick])
            else:  # a new cluster, labelled one past the largest
                lab = int(cands[k - 1]) + 1 if k else 1
            scan.place(i, h, lab, value[pick])
            labels[i] = lab
    except (ArithmeticError, NotPositiveDefinite, np.linalg.LinAlgError):
        (state.labels, state.clusters, state.log_ml, chain.factors,
         state.rng.bit_generator.state) = snapshot
        raise
    _canonicalize(state, scan.log_ml.tolist())
    if not moved:
        state.stay = _Stay(*np.array(bounds).T)
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

    A settled chain's sweeps are answered in runs by ``_Stay.count``, with
    the outputs of a scan on every sweep; the sweeps of one run share one
    label tuple in label_trace.  A sweep the test does not answer is
    scanned by gibbs_sweep without being tested again.  With debug, the
    caches are checked after each run and each scanned sweep.
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
    sweep = 0
    while sweep < sweeps:
        # a settled chain's run of sweeps is answered at once; else one scan
        done = 0 if state.stay is None else state.stay.count(state, sweeps - sweep)
        if not done:
            gibbs_sweep(state, data)
            done = 1
        if debug:
            state.check_consistency(data)
        k = state.k()
        k_trace += [k] * done
        kept_now = sweep + done - max(sweep, burnin)
        if kept_now > 0:
            k_counts[k] = k_counts.get(k, 0) + kept_now
            kept += [tuple(state.labels)] * kept_now
        sweep += done
    # a settled chain keeps few distinct label vectors: add each one's
    # indicator once, times its count (exact, as the sums are integers)
    for labs, count in Counter(kept).items():
        lab = np.asarray(labs)
        np.add(co, count, out=co, where=lab[:, None] == lab[None, :])
    co /= sweeps - burnin
    best = max(k_counts.values())
    k_mode = min(k for k, c in k_counts.items() if c == best)
    return PosteriorSummary(
        co_clustering=co,
        k_trace=tuple(k_trace),
        k_mode=k_mode,
        label_trace=tuple(kept),
    )
