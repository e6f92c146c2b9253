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
the transformed Gram matrix and of a square root R of each cluster's
(I + G_c)^-1 = R R^T.  After an O(n^2 p) setup, which also fills an
n x n table of every pair's log marginal (n^2 floats, as the Gram
matrix), the weight of a point joining a cluster costs one n_c-vector
product with R, O(n_c^2), and the weight of one leaving it O(n_c), a
dot product of its row of R.  Applying a move costs O(n_c^2) on each
side: a join adds one row and column to R, and a departure reflects R
once (``_Border``, ``_Deletion``).  ``_Scan.block`` scores a block of
consecutive points against the partition they all see until one of
them changes it: the singleton candidates of every row are one gather
from the pair table, each larger cluster is scored by ``_Scan._column``,
and the weight of a point's own cluster is the log marginal that
cluster already holds.  ``_column`` is the one function that scores a
cluster's joins and departures and rebuilds a factor that drifted: for
a block, one matmul for the joins of all rows and one gather of the
rows of R for the departures of its members; for one row, as
``_Scan.lone`` scores it, matrix-vector products.  gibbs_sweep walks
a block's rows to the first that moves its point and applies that move
alone; the next block starts after it.  A block is one row after a
move and doubles after a block walked through, up to _ROWS rows, so
its temporaries stay O(_ROWS n) floats; blocks of fewer than _BATCH
rows are scored one row at a time, where batching costs more than it
saves.  A sweep that moves most points thus scans one row at a time,
and one that moves none a few dozen matmuls a cluster.

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
from math import inf, isfinite, log, sqrt
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

# The pair table is evaluated, and a sweep scores its points, at most
# this many rows at a time.
_ROWS = 64

# A sweep batches the scores of at least this many points and scores
# fewer one at a time (``_Scan.lone``).  On a 2-core x86 box a batched
# block of one row took about three times as long as one point scored
# alone (27 against 10 us), and a settled ten-point sweep took 229 us
# with blocks from 2 rows, 153 us from 8; n = 400 sweeps cost the same
# from 2 to 16.
_BATCH = 8


def _drifted(schur: float) -> bool:
    """A Schur complement of I + G is >= 1 in exact arithmetic, so a
    smaller or non-finite one from an updated factor shows drift."""
    return not _SCHUR_FLOOR <= schur < inf


class _Factor(NamedTuple):
    """A square root of the inverse of A = I + G_c for one cluster.

    root is an m x m matrix R with R R^T = A^-1, its rows in the order
    of ``order``: (A^-1)_jk is the dot product of rows j and k, so R^T is
    a W with W^T W = A^-1.  z = R^T 1, s = z . z = 1^T A^-1 1 and
    log_det = log|A|.  A^-1 = R R^T is positive semidefinite however R
    is rounded, and each row has norm at most 1 since A >= I.  An entry
    is never mutated; an update builds a new one.
    """

    order: np.ndarray
    root: np.ndarray
    z: np.ndarray
    s: float
    log_det: float


def _grown(f: _Factor, schur: float, t: float) -> tuple:
    """(log|A|, 1^T A^-1 1) of f's cluster with a point appended, from the
    append's Schur complement and t (see _Border); schur must not have
    drifted."""
    return f.log_det + log(schur), f.s + t * t / schur


def _shrunk(f: _Factor, d: float, c: float) -> tuple:
    """(log|A|, 1^T A^-1 1) of f's cluster without a point whose row w of
    f.root has d = w . w > 0 and c = w . z (see _Deletion)."""
    return f.log_det + log(d), f.s - c * c / d


class _Border(NamedTuple):
    """Append of point i to f's cluster: with g the Gram column of i,
    l = R^T g, schur = 1 + g_ii - l . l and t = 1 - z . l.

    Applied, it is R with one row and one column added: with v = R l =
    A^-1 g and sigma = sqrt(schur), R' = [[R, -v / sigma], [0, 1 / sigma]]
    and z' = [z, t / sigma].  That is one matrix-vector product and a
    copy of R, O(m^2) memory traffic with no m x m arithmetic.
    """

    schur: float
    f: _Factor
    i: int
    l: np.ndarray
    t: float

    def applied(self) -> _Factor:
        schur, f, i, l, t = self
        log_det, s = _grown(f, schur, t)
        sigma = sqrt(schur)
        m = l.size
        root = np.empty((m + 1, m + 1))
        root[:m, :m] = f.root
        np.multiply(f.root.dot(l), -1.0 / sigma, out=root[:m, m])
        root[m, :m] = 0.0
        root[m, m] = 1.0 / sigma
        z = np.empty(m + 1)
        z[:m] = f.z
        z[m] = t / sigma
        order = np.empty(m + 1, dtype=f.order.dtype)
        order[:m] = f.order
        order[m] = i
        return _Factor(order, root, z, s, log_det)


class _Deletion(NamedTuple):
    """Deletion of the point at position pos of f's cluster: with w its
    row of R, d = w . w = (A^-1)_pos,pos, c = w . z and schur = 1 / d,
    or -inf if d <= 0.

    Applied, a Householder reflection H of the columns maps w onto the
    last axis, so that the other rows' products with w all sit in the
    last column; dropping that column and w's row leaves a root of the
    smaller inverse (its Schur complement).  The last member takes the
    deleted one's row.  That is one matrix-vector product and one
    rank-one update, O(m^2), with one m x m temporary.
    """

    schur: float
    f: _Factor
    pos: int
    d: float
    c: float

    def applied(self) -> _Factor:
        _, f, pos, d, c = self
        log_det, s = _shrunk(f, d, c)
        root, z, order = f.root, f.z, f.order
        w = root[pos]
        wk = float(w[-1])
        # H = I - beta u u^T with u = w + a e_k maps w to -a e_k; a takes
        # the sign of w_k, so u_k does not cancel
        nw = sqrt(d)
        a = nw if wk >= 0.0 else -nw
        beta = 1.0 / (d + nw * abs(wk))
        u = w.copy()
        u[-1] += a
        q = root.dot(u)
        new = root[:-1, :-1].copy()
        keep = order[:-1].copy()
        if pos < w.size - 1:  # the last member takes the deleted one's row
            new[pos] = root[-1, :-1]
            q[pos] = q[-1]
            keep[pos] = order[-1]
        new -= np.multiply.outer(q[:-1], w[:-1] * beta)
        # H (z - w) without its last entry, with u . (z - w) from c and d
        gamma = beta * (c - d + a * (float(z[-1]) - wk))
        return _Factor(keep, new, z[:-1] - w[:-1] * (1.0 + gamma), s, log_det)


class _ChainCache:
    """Per-chain quantities for incremental cluster marginal evaluation.

    Holds the Gram matrix G of the transformed data and the size-indexed
    part of the marginal (``niw.size_constants``), so a cluster's log
    marginal needs only log|I + G_c| and 1^T (I + G_c)^-1 1.  Those
    come from ``factors``, which maps the member tuple of a current
    cluster of two or more points to its ``_Factor``, a square root R of
    (I + G_c)^-1 = R R^T and z = R^T 1.  Scoring a point's join is one
    matrix-vector product with R, O(n_c^2), and its departure two dot
    products with its row of R, O(n_c).  Applying either is O(n_c^2): a
    join adds a row and a column to R with no n_c x n_c arithmetic, and
    a departure is one Householder reflection.  R R^T is positive
    semidefinite however R is rounded, so an update cannot make the
    inverse indefinite; drift shows as a Schur complement below 1 and
    is rebuilt.  Each singleton's marginal is held in ``single``, and
    each pair's in the n x n table ``pair``: pair[i, j] is the log
    marginal of {i, j}, in closed form from its 2 x 2 Gram block.  The
    table costs n^2 floats, as G does.

    ``_Scan._column`` alone scores joins and departures against these
    factors, and rebuilds one whose score drifted.  ``_Scan.place``
    applies the _Border and _Deletion of the one row that moves, built
    from the scores it was picked by.  A cluster with no entry (a fresh
    pair, or each cluster of a rebuilt chain) is built from its Gram
    block on first use.  Entries are never mutated, so copying the dict
    snapshots the store.
    """

    def __init__(self, data: np.ndarray, prior: NiwPrior):
        self.data = data
        self.gram = gram_matrix(transform_data(data, prior))
        # log marginal of nh points from log|I + G_c| and 1^T (I + G_c)^-1 1;
        # sizes up to 2 at least, for the pair table
        self._value = partial(
            dual_log_marginal, size_constants(prior, max(data.shape[0], 2)), prior
        )
        one = self._one = 1.0 + self.gram.diagonal()
        self.single = self._value(1, np.log(one), 1.0 / one)
        self.pair = self._pairs()
        self.factors: dict = {}

    def _pairs(self, rows: int = _ROWS) -> np.ndarray:
        """The pair table, evaluated rows at a time so that its
        temporaries stay O(rows n).

        The 2 x 2 determinant of a pair is a c - g^2, with a and c its
        diagonal of I + G and g its Gram entry.  Near data scale 1e80 the
        products overflow; only where log|.| or s comes out non-finite are
        they taken from q = c - g (g / a), the Schur complement, as
        log a + log q and ((a + c - 2 g) / a) / q, so every other entry
        keeps its bits.  An entry that is still not finite is caught by the
        weight check of the sweep that reads it."""
        a = self._one
        n = a.size
        pair = np.empty((n, n))
        with np.errstate(all="ignore"):
            for lo in range(0, n, rows):
                c = a[lo : lo + rows, None]
                g = self.gram[lo : lo + rows]
                det = a * c - g * g
                log_det, s = np.log(det), (a + c - 2.0 * g) / det
                bad = ~(np.isfinite(log_det) & np.isfinite(s))
                if bad.any():
                    ab, cb = (np.broadcast_to(x, g.shape)[bad] for x in (a, c))
                    gb = g[bad]
                    q = cb - gb * (gb / ab)
                    log_det[bad] = np.log(ab) + np.log(q)
                    s[bad] = ((ab + cb - 2.0 * gb) / ab) / q
                pair[lo : lo + rows] = self._value(2, log_det, s)
        return pair

    # ---------------------------------------------------------- factors

    def _build(self, idx: tuple) -> _Factor:
        """Factor of idx from one Cholesky factor L L^T of its Gram block:
        R = L^-T and z = L^-1 1."""
        ii = np.asarray(idx, dtype=np.intp)
        lower, log_det, z = factor_gram(self.gram[ii[:, None], ii])
        root = forward_solve(lower, np.eye(ii.size)).T.copy()
        return _Factor(ii, root, z, float(z @ z), log_det)

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
            return float(self.single[idx[0]])
        f = self._factor(idx)
        return float(self._value(len(idx), f.log_det, f.s))


class _Block(NamedTuple):
    """Scores of the points lo, lo + 1, ... against one partition.

    Row r is point lo + r and column c the candidate cands[c]: the
    current labels, sorted, then the new-cluster slot.  Only the rows
    below stop were scored.  value[r, c] is the log marginal of the
    candidate with the point added (for its own cluster, the one that
    cluster holds), log_w[r, c] its log weight, log n_c + value - log_ml
    with the point taken out, and cum the running sums of the weights
    scaled by the row's largest; ok says whether a row's log weights are
    finite.  A point alone in its cluster has that cluster's column at
    -inf, and its home, the column of its own cluster, is the new-cluster
    slot.  rest holds the log marginal of each own cluster without its
    point (unread for a point alone), and relabel, ascending, the rows of
    the points alone that the new-cluster slot gives another label
    (``_fresh``).

    appends maps the label of each cluster of two or more points to
    (f, l, schur, t) from ``_Scan._column``, and deletions the row of a
    member of a cluster of three or more to its (pos, d, c), for a lone
    row (``_Scan.lone``) as for a block; ``updates`` builds a row's
    updates from them.
    """

    lo: int
    stop: int
    cands: np.ndarray
    home: np.ndarray
    value: np.ndarray
    log_w: np.ndarray
    cum: np.ndarray
    ok: np.ndarray
    rest: list
    relabel: list
    appends: dict
    deletions: dict

    def updates(self, r: int, h: int, lab: int) -> dict:
        """The updates that the move of row r's point from h to lab
        applies, by label: h's deletion and lab's append, where they have
        factors."""
        out = {}
        if r in self.deletions:
            f, _, schur, _ = self.appends[h]
            out[h] = _Deletion(schur[r], f, *self.deletions[r])
        if lab != h and lab in self.appends:
            f, l, schur, t = self.appends[lab]
            out[lab] = _Border(schur[r], f, self.lo + r, l[r], t[r])
        return out


def _fresh(cands: np.ndarray, h: int, alone: bool) -> int:
    """The label of a new cluster for a point of cluster h, with cands the
    current labels and the new-cluster slot: one past the largest label,
    leaving out h if the point is alone in it."""
    top = int(cands[-2])
    if alone and h == top:
        return int(cands[-3]) + 1 if cands.size > 2 else 1
    return top + 1


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

    ``block`` scores consecutive points against the partition as it
    stands, ``lone`` one point, and ``place`` applies a move.  Both score
    the larger clusters by ``_column``: ``lone`` in its one-row form, and
    ``block`` in its block form from two rows on.
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
        self.log_alpha = log(alpha)
        self.multi = {lab for lab, idx in clusters.items() if len(idx) > 1}
        self.cands = None

    def lone(self, i: int, labels: list) -> _Block:
        """Score point i, whose label is labels[i], as a block of one row.

        The weights are those ``block`` gives for the row, up to rounding:
        ``_column`` scores one row with matrix-vector products, and the
        rest is scalar work, where a batched block of one row costs two to
        three times as much, in numpy calls.  A pair the point belongs to
        is not scored, as its other member is left a singleton.
        """
        chain = self.chain
        cands = self.cands
        if cands is None:
            cands = self.cands = self.size.nonzero()[0]
        h = labels[i]
        home = int(cands.searchsorted(h))
        value = chain.pair[i].take(self.first.take(cands))
        log_w = value - self.log_ml.take(cands)  # log 1 + value - log_ml for a singleton
        appends, deletions, rest = {}, {}, 0.0
        for lab in self.multi:
            idx = self.clusters[lab]
            m = len(idx)
            if lab != h:
                out, _ = self._column(lab, i, i + 1, (), deletions)
                f, _, schur, t = appends[lab] = out
                k = cands.searchsorted(lab)
                value[k] = x = chain._value(m + 1, *_grown(f, schur[0], t[0]))
                log_w[k] = log(m) + x - self.log_ml[lab]
                continue
            if m > 2:
                appends[lab], _ = self._column(lab, i, i + 1, (0,), deletions)
                rest = chain._value(m - 1, *_shrunk(appends[lab][0], *deletions[0][1:]))
            else:  # the other member of a pair is left alone, with no factor read
                rest = chain.single[idx[0] if idx[1] == i else idx[1]]
            value[home] = self.log_ml[h]
            log_w[home] = log(m - 1) + self.log_ml[h] - rest
        value[-1] = x = chain.single[i]
        log_w[-1] = self.log_alpha + x
        relabel = []
        if h not in self.multi:
            log_w[home] = 0.0
        ok = isfinite(log_w.sum())
        if h not in self.multi:
            log_w[home] = -inf
            home = cands.size - 1
            relabel = [0] if _fresh(cands, h, True) != h else []
        # a non-finite weight is raised by the walk, unscaled
        cum = np.exp(log_w - log_w.max()).cumsum() if ok else log_w
        return _Block(i, 1, cands, [home], value[None], log_w[None], cum[None], [ok],
                      [rest], relabel, appends, deletions)

    def block(self, lo: int, hi: int, labels: list) -> _Block:
        """Score the points lo..hi-1, whose labels are labels[lo:hi], each
        as if it were the first to be taken out of its cluster.

        The singleton candidates of all rows are one gather from the pair
        table.  Each cluster of two or more points is scored for all rows
        at once by ``_column``, and the block stops at the first row whose
        score drifted; the cluster's join marginals are then one array
        expression over the rows, and each member's leave is read off in
        scalars.  The rows are normalized at once.  Temporaries are
        O((hi - lo) n) floats.
        """
        chain = self.chain
        cands = self.cands
        if cands is None:
            cands = self.cands = self.size.nonzero()[0]
        mine = labels[lo:hi]
        log_ml, marginal = self.log_ml, chain._value
        own = {}  # the label of a larger cluster -> the rows of its members
        for r, h in enumerate(mine):
            if h in self.multi:
                own.setdefault(h, []).append(r)
        appends, deletions = {}, {}
        stop = hi - lo
        with np.errstate(all="ignore"):  # rows past a drifted one are never read
            for lab in self.multi:
                out, bad = self._column(lab, lo, hi, own.get(lab, ()), deletions)
                appends[lab] = out
                stop = min(stop, bad)
        value = chain.pair[lo:hi].take(self.first.take(cands), axis=1)
        value[:, -1] = chain.single[lo:hi]
        log_w = value - log_ml.take(cands)  # log 1 + value - log_ml for a singleton
        log_w[:, -1] = self.log_alpha + value[:, -1]
        home = cands.searchsorted(mine)
        rest = [0.0] * stop
        alone = []
        with np.errstate(all="ignore"):  # a non-finite weight is raised by the walk
            # each larger cluster's joins, for all rows at once; its members'
            # rows are overwritten below.  A cluster of every point has no
            # join to score, nor a one-row member's own cluster (t None).
            for lab, (f, _, schur, t) in appends.items():
                m = f.z.size
                if m == chain.single.size or t[0] is None:
                    continue
                schur, t = np.array(schur[:stop]), np.array(t[:stop])
                x = marginal(m + 1, f.log_det + np.log(schur), f.s + t * t / schur)
                k = cands.searchsorted(lab)
                value[:stop, k] = x
                log_w[:stop, k] = log(m) + x - log_ml[lab]
            for r in range(stop):
                h = mine[r]
                if h not in appends:
                    alone.append(r)
                    continue
                f = appends[h][0]
                m = f.z.size
                if m > 2:
                    rest[r] = marginal(m - 1, *_shrunk(f, *deletions[r][1:]))
                else:  # the other member of a pair is left alone
                    idx = self.clusters[h]
                    rest[r] = chain.single[idx[0] if idx[1] == lo + r else idx[1]]
                value[r, home[r]] = log_ml[h]
                log_w[r, home[r]] = log(m - 1) + log_ml[h] - rest[r]
            log_w = log_w[:stop]
            if alone:
                log_w[alone, home[alone]] = 0.0
            ok = np.isfinite(log_w.sum(axis=1))
            if alone:
                log_w[alone, home[alone]] = -inf
                home[alone] = cands.size - 1
            cum = np.exp(log_w - log_w.max(axis=1, keepdims=True)).cumsum(axis=1)
        relabel = [r for r in alone if _fresh(cands, mine[r], True) != mine[r]]
        return _Block(lo, stop, cands, home, value, log_w, cum, ok, rest, relabel,
                      appends, deletions)

    def _column(self, lab: int, lo: int, hi: int, own, deletions: dict) -> tuple:
        """((f, l, schur, t), stop): the scores of the points lo..hi-1
        against cluster lab, whose factor f has root R, as ``_Block``
        holds them.

        A join (_Border): row r of l is R^T g for point lo + r, with g its
        Gram column, and schur[r] = 1 + g_ii - l . l and t[r] = 1 - z . l.
        A leave (_Deletion), for the rows own of lab's members: schur[r]
        is 1 / d instead, and deletions[r] gets (pos, d, c), with w the
        member's row of R, d = w . w and c = w . z.  A pair's member, which
        leaves a singleton with no factor, gets schur 1.  One row is scored
        with matrix-vector products, and a member's join of its own
        cluster is skipped (l and t hold None); more rows take one matmul
        for the joins and one gather of R's rows for the leaves.

        The drift rule: if row 0's Schur complement drifted, f is rebuilt
        from its Gram block once, and the rebuilt f must give row 0 a
        positive finite one.  stop is the first later row that drifted, or
        hi - lo; rows from stop on are never read.
        """
        chain = self.chain
        idx = self.clusters[lab]
        f = chain._factor(idx)
        rows = hi - lo
        for rebuilt in (False, True):
            if rows > 1:
                l = chain.gram[lo:hi].take(f.order, axis=1) @ f.root
                schur = (chain._one[lo:hi] - (l * l).sum(axis=1)).tolist()
                t = (1.0 - l @ f.z).tolist()
            elif own:
                l, schur, t = [None], [1.0], [None]
            else:
                v = chain.gram[lo].take(f.order).dot(f.root)
                l, t = [v], [1.0 - float(f.z.dot(v))]
                schur = [chain._one[lo] - float(v.dot(v))]
            if own and f.z.size > 2:
                if rows > 1:
                    where = dict(zip(f.order.tolist(), range(f.z.size)))
                    pos = [where[lo + r] for r in own]
                    w = f.root.take(pos, axis=0)
                    leaves = zip(own, pos, (w * w).sum(axis=1).tolist(), (w @ f.z).tolist())
                else:
                    k = f.order.tolist().index(lo)
                    w = f.root[k]
                    leaves = ((0, k, float(w.dot(w)), float(w.dot(f.z))),)
                for r, k, d, c in leaves:
                    deletions[r] = k, d, c
                    schur[r] = 1.0 / d if d > 0.0 else -inf
            else:
                for r in own:
                    schur[r] = 1.0
            if not _drifted(schur[0]):
                break
            if rebuilt:
                if not 0.0 < schur[0] < inf:
                    raise NotPositiveDefinite(
                        f"Schur complement {schur[0]} in a cluster of {len(idx)}"
                    )
                break
            f = chain.factors[idx] = chain._build(idx)
        stop = next((r for r in range(1, rows) if _drifted(schur[r])), rows) if rows > 1 else 1
        return (f, l, schur, t), stop

    def place(self, i: int, h: int, lab: int, value: float, rest: float, updates: dict) -> None:
        """Move point i from cluster h to cluster lab, a label that may name
        no cluster.  value is lab's log marginal with i, rest h's without
        it (unread if i was alone), and updates holds, by label, the
        updates that scored them (``_Block.updates``).  The move stores
        their factors; one whose Schur complement drifted is built from
        the new cluster's Gram block instead."""
        clusters = self.clusters
        members = clusters[h]
        k = bisect_left(members, i)
        left = members[:k] + members[k + 1 :]
        target = clusters.get(lab, ())
        k = bisect_left(target, i)
        key = clusters[lab] = target[:k] + (i,) + target[k:]
        if left:
            clusters[h] = left
        else:
            del clusters[h]
        if len(left) < 2:
            self.multi.discard(h)
        if len(left) == 1:
            self.first[h] = left[0]
        if len(key) > 1:
            self.multi.add(lab)
        else:
            self.first[lab] = i
        chain = self.chain
        for old, new, c in ((members, left, h), (target, key, lab)):
            chain.factors.pop(old, None)
            out = updates.get(c)
            if out is not None:
                drifted = _drifted(out.schur)
                chain.factors[new] = chain._build(new) if drifted else out.applied()
        if not left or not target:
            self.cands = None
        self.size[h] -= 1
        self.size[lab] += 1
        self.log_ml[h] = rest
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

    The scan runs in blocks of consecutive points, each scored against
    the partition at its start, which is the partition every point of it
    sees up to the first that changes it: by ``_Scan.block``, or by
    ``_Scan.lone`` if it has fewer than _BATCH rows, when it is cut to
    one row.  The block's rows are normalized, summed and searched at
    once, and the walk stops at the first row that moves its point, or
    relabels a point alone by putting it in the new-cluster slot;
    ``_Scan.place`` applies that row, with the updates that scored it,
    and the next block starts after it.  The rows before it stayed and
    change nothing, and those after it are dropped unread.  A block is
    one row after a move and twice the last one after a block walked
    through, up to _ROWS rows, so a sweep that moves no point takes about
    log2(n) + n / _ROWS blocks and one that moves most points one row a
    block.  Temporaries are O(_ROWS n) floats.  data must have one row
    per label.
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
    us = state.rng.random(n)
    snapshot = (
        list(labels),
        dict(state.clusters),
        dict(state.log_ml),
        dict(chain.factors),
        rng_state,
    )
    # while no point has moved: per walked row, the cumulative weights
    # below and at its own slot, and their total
    walked = []
    moved = False
    scan = _Scan(chain, state.clusters, state.log_ml, state.crp.alpha)
    try:
        i, rows = 0, 1
        while i < n:
            hi = min(i + rows, n, i + _ROWS)
            blk = scan.block(i, hi, labels) if hi - i >= _BATCH else scan.lone(i, labels)
            w, cum, home = blk.stop, blk.cum, blk.home
            last = cum.shape[1] - 1  # the new-cluster slot
            # the count of cumulative weights <= u total (searchsorted
            # "right"), short of the last slot, whose interval is open above
            if w == 1:  # a lone row, in scalars
                pick = [min(int(cum[0].searchsorted(us[i] * cum[0, -1], "right")), last)]
                r = 0 if pick[0] != home[0] or not blk.ok[0] else 1
            else:
                pick = (cum[:w, :-1] <= (us[i : i + w] * cum[:w, -1])[:, None]).sum(axis=1)
                edit = (pick != home[:w]) | ~blk.ok[:w]
                r = int(edit.argmax())
                if not edit[r]:
                    r = w
            if blk.relabel and blk.relabel[0] < r:
                r = blk.relabel[0]  # a point alone that stays, relabelled
            if not moved:  # the walked rows' slots and totals
                if w == 1:
                    c, k = cum[0], home[0]
                    walked.append((c[k - 1] if k else -inf, c[k] if k < last else inf, c[-1]))
                else:
                    rr = np.arange(min(r + 1, w))
                    k = home[rr]
                    walked += zip(np.where(k > 0, cum[rr, k - 1], -inf).tolist(),
                                  np.where(k < last, cum[rr, k], inf).tolist(),
                                  cum[rr, -1].tolist())
            if r == w:
                i += w
                rows *= 2
                continue
            if not blk.ok[r]:
                raise FloatingPointError(
                    f"non-finite reassignment weight for data row {i + r + 1}"
                )
            p = int(pick[r])
            h = labels[i + r]
            lab = int(blk.cands[p]) if p < last else _fresh(blk.cands, h, home[r] == last)
            if p != home[r]:
                moved = True
                rows = 1
            scan.place(i + r, h, lab, blk.value[r, p], blk.rest[r], blk.updates(r, h, lab))
            labels[i + r] = lab
            i += r + 1
    except (ArithmeticError, NotPositiveDefinite, np.linalg.LinAlgError):
        (state.labels, state.clusters, state.log_ml, chain.factors,
         state.rng.bit_generator.state) = snapshot
        raise
    _canonicalize(state, scan.log_ml.tolist())
    if not moved:
        state.stay = _Stay(*np.array(walked).T)
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
