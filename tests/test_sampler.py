"""Collapsed Gibbs chain: exactness on tiny problems, plumbing, summaries."""

from math import log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from niwclust import sampler
from niwclust.datagen import GenSpec, generate
from niwclust.errors import DomainError, InvalidConfig
from niwclust.niw import (
    NiwPrior,
    RobustPriorSpec,
    cluster_log_marginal,
    robust_prior,
)
from niwclust.partition import CrpPrior, Partition, adjusted_rand_index
from niwclust.ratio import merge_log_ratio, projector_residual
from niwclust.sampler import gibbs_sweep, init_state, run_chain
import oracles


def test_chain_recovers_exact_posterior_on_four_points():
    # n = 4 has 15 partitions; long chain matches full enumeration in TV
    rng = np.random.default_rng(42)
    data = rng.standard_normal((4, 3))
    prior = NiwPrior(np.zeros(3), 1.5, 5.0, 1.2)
    alpha = 0.8

    def log_ml(rows):
        return cluster_log_marginal(rows, prior)

    exact = oracles.exact_partition_posterior(data, log_ml, alpha)
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-10)

    out = run_chain(data, prior, CrpPrior(alpha), sweeps=20000, burnin=1000,
                    seed=3)
    counts: dict = {}
    for lab in out.label_trace:
        counts[lab] = counts.get(lab, 0) + 1
    total = len(out.label_trace)
    tv = 0.5 * sum(abs(counts.get(q, 0) / total - prob)
                   for q, prob in exact.items())
    assert tv < 0.05


# Gate 9's single-site chain, started from singletons, reports this
# k_mode on the five datasets below; the exact posterior disagrees.
GATE9_CHAIN_K_MODE = 2


def test_exact_posterior_on_gate9_data_is_one_cluster():
    # full enumeration of Bell(10) = 115,975 partitions per dataset
    p, n = 2000, 10
    priors = {"robust": robust_prior(p, RobustPriorSpec(1.0, 2.0)),
              "naive": NiwPrior(np.zeros(p), 1.0, float(p + 2), 1.0)}
    lines = []
    ks = None
    for seed in range(5):
        data, _ = generate(GenSpec(kind="two_cluster_mixture", n=n, p=p,
                                   separation=20.0, seed=seed))
        for tag, prior in priors.items():
            exact = oracles.exact_partition_posterior(
                data, lambda rows: cluster_log_marginal(rows, prior),
                1.0)
            if ks is None:  # every call lists the partitions in one order
                ks = np.array([max(labels) for labels in exact])
            probs = np.fromiter(exact.values(), dtype=float)
            pk = np.bincount(ks, weights=probs, minlength=n + 1)
            map_k = ks[np.argmax(probs)]
            assert pk[1] >= 1.0 - 1e-6, (seed, tag, pk[1])
            assert map_k == 1, (seed, tag)
            if tag == "robust":
                assert pk[2] < 1e-6, (seed, pk[2])
            lines.append(f"seed {seed} {tag}: P(k=1) = {pk[1]:.9f}, "
                         f"P(k=2) = {pk[2]:.2e}")
    # shown with pytest -s, next to the chain's answer
    print(f"exact posterior on gate 9 data (chain k_mode {GATE9_CHAIN_K_MODE}):",
          *lines, sep="\n")


def test_same_seed_reproduces_chain():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((6, 4))
    prior = NiwPrior(np.zeros(4), 1.0, 7.0, 1.0)
    kw = dict(sweeps=60, burnin=10)
    a = run_chain(data, prior, CrpPrior(1.0), seed=11, **kw)
    b = run_chain(data, prior, CrpPrior(1.0), seed=11, **kw)
    c = run_chain(data, prior, CrpPrior(1.0), seed=12, **kw)
    assert a.k_trace == b.k_trace
    assert a.label_trace == b.label_trace
    assert np.array_equal(a.co_clustering, b.co_clustering)
    assert a.label_trace != c.label_trace


def test_init_modes():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((5, 3))
    prior = NiwPrior(np.zeros(3), 1.0, 6.0, 1.0)
    crp = CrpPrior(1.0)
    assert init_state(data, prior, crp, 0, init="single").k() == 1
    assert init_state(data, prior, crp, 0, init="singletons").k() == 5
    with pytest.raises(InvalidConfig):
        init_state(data, prior, crp, 0, init="spread")
    with pytest.raises(InvalidConfig):
        init_state(data[0], prior, crp, 0)


@pytest.mark.parametrize("init", ["single", "singletons"])
def test_one_row_chain(init):
    # one observation: one cluster on every sweep (the pair table's size
    # constants reach size 2 even at n = 1)
    data = np.array([[0.5, -1.0, 2.0]])
    out = run_chain(data, NiwPrior(np.zeros(3), 1.0, 5.0, 1.0), CrpPrior(1.0),
                    sweeps=10, burnin=2, seed=0, init=init)
    assert out.k_mode == 1
    assert out.k_trace == (1,) * 10
    assert out.co_clustering.tolist() == [[1.0]]


def test_run_chain_rejects_bad_sweep_counts():
    data = np.zeros((3, 2)) + np.eye(3, 2)
    prior = NiwPrior(np.zeros(2), 1.0, 4.0, 1.0)
    with pytest.raises(InvalidConfig):
        run_chain(data, prior, CrpPrior(1.0), sweeps=5, burnin=5, seed=0)
    with pytest.raises(InvalidConfig):
        run_chain(data, prior, CrpPrior(1.0), sweeps=5, burnin=-1, seed=0)


def test_sampler_needs_nu0_at_least_p():
    # the prior itself allows nu0 > p - 1, but the per-size telescoping
    # of the gamma factor needs nu0 >= p, in every marginal evaluation
    p = 4
    prior = NiwPrior(np.zeros(p), 1.0, p - 0.5, 1.0)
    data = np.random.default_rng(2).standard_normal((5, p))
    for form in ("primal", "dual"):
        with pytest.raises(DomainError, match="marginals need nu0 >= p"):
            cluster_log_marginal(data, prior, form=form)
    with pytest.raises(DomainError, match="marginals need nu0 >= p"):
        init_state(data, prior, CrpPrior(1.0), 0)
    with pytest.raises(DomainError, match="marginals need nu0 >= p"):
        run_chain(data, prior, CrpPrior(1.0), sweeps=2, burnin=0, seed=0)
    with pytest.raises(DomainError, match="marginals need nu0 >= p"):
        merge_log_ratio(data, Partition([1, 1, 2, 2, 2]), 1, 2, prior, CrpPrior(1.0))


def test_co_clustering_matrix_shape_and_blocks():
    spec = GenSpec(kind="two_cluster_mixture", n=10, p=2000, separation=20.0,
                   seed=0)
    data, truth = generate(spec)
    prior = robust_prior(2000, RobustPriorSpec(1.0, 2.0))
    out = run_chain(data, prior, CrpPrior(1.0), sweeps=60, burnin=20,
                    seed=100, init="singletons")

    co = out.co_clustering
    assert co.shape == (10, 10)
    assert np.allclose(co, co.T)
    assert np.allclose(np.diag(co), 1.0)
    assert co.min() >= 0.0 and co.max() <= 1.0 + 1e-12

    same = np.equal.outer(truth.labels, truth.labels)
    off = ~np.eye(10, dtype=bool)
    assert co[same & off].mean() > 0.9
    assert co[~same].mean() < 0.1
    assert out.k_mode == 2
    last = out.label_trace[-1]
    assert adjusted_rand_index(last, truth) == 1.0


def test_label_trace_keeps_post_burnin_sweeps():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((5, 3))
    prior = NiwPrior(np.zeros(3), 1.0, 6.0, 1.0)
    out = run_chain(data, prior, CrpPrior(1.0), sweeps=12, burnin=4, seed=5)
    assert len(out.k_trace) == 12
    assert out.k_mode in out.k_trace
    assert len(out.label_trace) == 8
    # canonical labels start at 1 on every stored sweep
    for lab in out.label_trace:
        assert min(lab) == 1
        assert max(lab) == len(set(lab))


def test_debug_consistency_checks_pass():
    rng = np.random.default_rng(9)
    data = rng.standard_normal((7, 4))
    prior = NiwPrior(np.zeros(4), 1.0, 8.0, 1.0)
    # debug=True re-derives every cached marginal from scratch after each
    # scanned sweep and each run of sweeps the stay test answers
    run_chain(data, prior, CrpPrior(1.5), sweeps=10, burnin=2, seed=21,
              debug=True)


def _mixing_problem(n=40, p=3, seed=7):
    # loosely separated groups under a weak prior: the chain keeps moving
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, p)) + rng.integers(0, 3, n)[:, None] * 1.0
    return data, NiwPrior(np.zeros(p), 0.5, p + 2.0, 1.0)


def _direct(data, prior, idx):
    return cluster_log_marginal(data[list(idx)], prior)


def _inverse(f):
    """(A^-1, A^-1 1) of factor f, with rows in the order of f.order."""
    return f.root @ f.root.T, f.root @ f.z


def _assert_matches_build(chain, idx, f, rel):
    """f is a _Factor of cluster idx that agrees with _build(idx) to rel:
    the same A^-1 = R R^T and A^-1 1 = R z, whatever the roots."""
    assert isinstance(f, sampler._Factor)
    ref = chain._build(idx)
    perm = np.argsort(f.order)
    assert np.array_equal(f.order[perm], ref.order)
    inv, b = _inverse(f)
    ref_inv, ref_b = _inverse(ref)
    assert np.allclose(inv[perm][:, perm], ref_inv, rtol=rel, atol=1e-12)
    assert np.allclose(b[perm], ref_b, rtol=rel, atol=1e-12)
    assert f.s == pytest.approx(ref.s, rel=rel)
    assert f.log_det == pytest.approx(ref.log_det, rel=rel, abs=rel)


def test_factor_drift_stays_below_1e8_over_many_moves(monkeypatch):
    # the chain keeps moving, so its factors take thousands of updates
    data, prior = _mixing_problem()
    counts = {"append": 0, "delete": 0}

    def count(name, step):
        applied = step.applied

        def wrapper(self):
            counts[name] += 1
            return applied(self)
        monkeypatch.setattr(step, "applied", wrapper)

    count("append", sampler._Border)
    count("delete", sampler._Deletion)
    state = init_state(data, prior, CrpPrior(1.0), 4, init="single")
    for _ in range(2000):  # about 500 sweeps apply 5000 of each
        if min(counts.values()) >= 5000:
            break
        gibbs_sweep(state, data)
    assert min(counts.values()) >= 5000
    state.check_consistency(data)
    chain = state.chain
    assert state.k() > 1
    assert set(chain.factors) == {idx for idx in state.clusters.values() if len(idx) > 1}
    for idx, f in chain.factors.items():
        _assert_matches_build(chain, idx, f, rel=1e-8)
    # every removal and append a scan of the final state reads, from one
    # block of all its points
    scan = sampler._Scan(chain, state.clusters, state.log_ml, 1.0)
    block = scan.block(0, len(data), state.labels)
    assert block.stop == len(data)
    checked = 0
    for i, h in enumerate(state.labels):
        members = state.clusters[h]
        if len(members) > 2:
            rest = tuple(j for j in members if j != i)
            value = block.rest[i]
            assert value == pytest.approx(_direct(data, prior, rest), rel=1e-8)
            checked += 1
        labs = [lab for lab in state.clusters if lab != h]
        cands, values = block.cands, block.value[i]
        grown = dict(zip(cands.tolist(), values.tolist()))
        assert set(grown) - {h, scan.new} == set(labs)
        for lab in labs:
            key = tuple(sorted(state.clusters[lab] + (i,)))
            assert grown[lab] == pytest.approx(_direct(data, prior, key), rel=1e-8)
            checked += 1
    assert checked > len(data)


def _singletons(chain):
    """A scan of the partition of chain's points into singletons, labelled 1..n."""
    clusters = {j + 1: (j,) for j in range(len(chain.single))}
    log_ml = {j + 1: value for j, value in enumerate(chain.single)}
    return sampler._Scan(chain, clusters, log_ml, 1.0)


def test_batched_singleton_weights_match_per_candidate():
    data, prior = _mixing_problem(n=12, p=30)
    chain = sampler._ChainCache(data, prior)
    labels = list(range(1, 13))
    for i in (0, 5, 11):
        block = _singletons(chain).block(i, i + 1, labels)
        cands, values, log_w, home = block.cands, block.value[0], block.log_w[0], block.home[0]
        # the point's own singleton is a column of zero weight; its home
        # is the new-cluster slot
        own = i
        assert cands[own] == i + 1 and log_w[own] == -np.inf
        cands, values, log_w = (np.delete(a, own) for a in (cands, values, log_w))
        labs = cands[:-1]
        assert len(labs) == len(log_w) - 1 == 11 and home == 12
        for lab, value, w in zip(labs, values, log_w):
            pair = tuple(sorted((lab - 1, i)))
            f = chain._build(pair)
            one_by_one = float(chain._value(2, f.log_det, f.s))
            assert value == pytest.approx(one_by_one, rel=1e-12)
            assert value == pytest.approx(_direct(data, prior, pair), rel=1e-10)
            assert w == value - chain.single[lab - 1]


@pytest.mark.parametrize("shift", [0.0, 100.0])
def test_pair_table_matches_per_pair_factors(shift):
    data, prior = _mixing_problem(n=12, p=30)
    data += shift
    chain = sampler._ChainCache(data, prior)
    for i in range(12):
        for j in range(12):
            if i != j:
                pair = tuple(sorted((i, j)))
                f = chain._build(pair)
                one_by_one = float(chain._value(2, f.log_det, f.s))
                assert chain.pair[i, j] == pytest.approx(one_by_one, rel=1e-12)
                assert chain.pair[i, j] == pytest.approx(
                    _direct(data, prior, pair), rel=1e-10
                )


def test_pair_table_far_from_the_prior_mean():
    # at shift 1000 the closed form and a Cholesky factor of the pair's
    # block each lose about 11 digits, so the table is held to the direct
    # marginal and to Murphy's formula at 50 digits
    data, prior = _mixing_problem(n=12, p=30)
    data += 1000.0
    chain = sampler._ChainCache(data, prior)
    for i in range(12):
        for j in range(12):
            if i != j:
                direct = _direct(data, prior, (i, j))
                assert chain.pair[i, j] == pytest.approx(direct, rel=1e-10)
    for i, j in ((0, 1), (3, 7), (11, 4)):
        ref = oracles.mp_log_marginal(data[[i, j]], prior.mu0, prior.kappa0,
                                      prior.nu0, 1.0)
        assert chain.pair[i, j] == pytest.approx(ref, rel=1e-10)


def test_pair_table_rows_at_a_time_equal_the_whole_table():
    # 130 rows: two blocks of 64 and one of 2
    data, prior = _mixing_problem(n=130, p=5)
    chain = sampler._ChainCache(data, prior)
    assert chain.pair.shape == (130, 130)
    for rows in (1, 7, 130):
        assert np.array_equal(chain._pairs(rows), chain.pair)


def _scored(chain, members, f, j):
    """The update that a lone row scores for point j against factor f of
    the cluster members, stored first in chain.factors: the _Border of j's
    join if j is not a member, else the _Deletion of its leave.  It is
    scored against f itself, with no rebuild."""
    idx = tuple(sorted(members))
    chain.factors[idx] = f
    h, lab = (1, 2) if j in idx else (2, 1)
    clusters = {1: idx} if j in idx else {1: idx, 2: (j,)}
    labels = [0] * len(chain.single)
    labels[j] = h
    scan = sampler._Scan(chain, clusters, dict.fromkeys(clusters, 0.0), 1.0)
    out = scan.lone(j, labels).updates(0, h, lab)[1]
    assert out.f is f and chain.factors[idx] is f
    return out


@given(seed=st.integers(0, 10 ** 6), steps=st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_factor_updates_match_direct_factorization(seed, steps):
    # the factors the sampler holds, of two or more points: a pair's
    # member leaves a singleton, which has no factor
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((10, 6))
    chain = sampler._ChainCache(data, NiwPrior(np.zeros(6), 1.0, 8.0, 2.0))
    members = sorted(rng.choice(10, size=int(rng.integers(2, 10)), replace=False))
    f = chain._build(tuple(members))
    for _ in range(steps):
        outside = sorted(set(range(10)) - set(members))
        if outside and (len(members) == 2 or rng.random() < 0.5):
            j = int(rng.choice(outside))
            f = _scored(chain, members, f, j).applied()
            members.append(j)
        else:
            j = int(rng.choice(members))
            f = _scored(chain, members, f, j).applied()
            members.remove(j)
        members.sort()
        _assert_matches_build(chain, tuple(members), f, rel=1e-9)


def test_factor_is_not_mutated_by_update():
    data, prior = _mixing_problem(n=8)
    chain = sampler._ChainCache(data, prior)
    f = chain._build((1, 3, 4, 6))
    before = [a.copy() for a in (f.order, f.root, f.z)] + [f.s, f.log_det]
    _scored(chain, (1, 3, 4, 6), f, 2).applied()
    _scored(chain, (1, 3, 4, 6), f, 4).applied()
    after = [f.order, f.root, f.z, f.s, f.log_det]
    for old, new in zip(before, after):
        assert np.array_equal(old, new)


def _last_entry_zeroed(f, pos):
    """f with the last two columns of its root rotated so that row pos
    ends in 0: the same A^-1 = R R^T, with z rotated alike."""
    a, b = f.root[pos, -2], f.root[pos, -1]
    r = np.hypot(a, b)
    rot = np.array([[a / r, -b / r], [b / r, a / r]])
    root, z = f.root.copy(), f.z.copy()
    root[:, -2:] = root[:, -2:] @ rot
    z[-2:] = z[-2:] @ rot
    root[pos, -1] = 0.0
    return f._replace(root=root, z=z)


@pytest.mark.parametrize("m", [6, 40])
def test_householder_deletion_matches_build_at_every_position(m):
    # the reflection takes the sign of w_k, the last entry of the deleted
    # row; every position of a built factor covers both signs, and a
    # rotated copy of it w_k = 0
    data, prior = _mixing_problem(n=m, p=8)
    chain = sampler._ChainCache(data, prior)
    members = tuple(range(m))
    f = chain._build(members)
    signs = set()
    for pos, i in enumerate(f.order.tolist()):
        rest = members[:i] + members[i + 1:]
        signs.add(np.sign(f.root[pos, -1]))
        for g in (f, _last_entry_zeroed(f, pos)):
            out = _scored(chain, members, g, i)
            assert out.pos == pos and not sampler._drifted(out.schur)
            _assert_matches_build(chain, rest, out.applied(), rel=1e-12)
    assert signs == {-1.0, 1.0}


def test_root_stays_an_inverse_over_500_random_moves():
    data, prior = _mixing_problem()
    chain = sampler._ChainCache(data, prior)
    n = len(data)
    rng = np.random.default_rng(11)
    members = list(range(0, n, 3))
    f = chain._build(tuple(members))
    for move in range(500):
        outside = sorted(set(range(n)) - set(members))
        if outside and (len(members) < 3 or rng.random() < 0.5):
            j = int(rng.choice(outside))
            f = _scored(chain, members, f, j).applied()
            members.append(j)
        else:
            j = int(rng.choice(members))
            f = _scored(chain, members, f, j).applied()
            members.remove(j)
        a = np.eye(f.z.size) + chain.gram[np.ix_(f.order, f.order)]
        assert np.abs(f.root @ f.root.T @ a - np.eye(f.z.size)).max() < 1e-10, move
        assert np.allclose(f.z, f.root.sum(axis=0), rtol=0.0, atol=1e-10)
    _assert_matches_build(chain, tuple(sorted(members)), f, rel=1e-10)


def test_drifted_factor_is_rebuilt():
    data, prior = _mixing_problem(n=8)
    chain = sampler._ChainCache(data, prior)
    members = (0, 2, 3, 5)
    chain.log_marginal(members)
    good = chain.factors[members]
    labels = [1, 3, 1, 1, 4, 1, 5, 2]

    # R = sqrt(2) I gives (A^-1)_ii = 2, a Schur complement of 1/2 < 1: drift
    chain.factors[members] = good._replace(root=np.sqrt(2.0) * np.eye(4))
    rest = (0, 2, 5)
    scan = sampler._Scan(chain, {1: members}, {1: 0.0}, 1.0)
    value = scan.block(3, 4, labels).rest[0]
    assert value == pytest.approx(_direct(data, prior, rest), rel=1e-10)
    assert np.allclose(chain.factors[members].root, good.root)
    # a non-finite factor is drift too, for a grow as for a removal
    nan_factor = good._replace(root=np.full((4, 4), np.nan))
    chain.factors[members] = nan_factor
    key = (0, 2, 3, 5, 7)
    scan = sampler._Scan(chain, {1: members, 2: (7,)}, {1: 0.0, 2: chain.single[7]}, 1.0)
    block = scan.block(7, 8, labels)
    cands, values = block.cands, block.value[0]
    assert cands[0] == 1
    assert values[0] == pytest.approx(_direct(data, prior, key), rel=1e-10)
    # and a move that applies a drifted update builds the new cluster
    # from its Gram block, for the cluster left as for the one joined
    pair = (1, 6)
    nan_pair = chain._build(pair)._replace(root=np.full((2, 2), np.nan))
    chain.factors = {members: nan_factor, pair: nan_pair}
    scan = sampler._Scan(chain, {1: members, 2: pair}, {1: 0.0, 2: 0.0}, 1.0)
    block = scan.block(3, 4, labels)  # rebuilds both factors
    cands, values = block.cands, block.value[0]
    assert values[cands.searchsorted(2)] == pytest.approx(
        _direct(data, prior, (1, 3, 6)), rel=1e-10)
    chain.factors = {members: nan_factor, pair: nan_pair}
    updates = {c: out._replace(schur=np.nan) for c, out in block.updates(0, 1, 2).items()}
    assert set(updates) == {1, 2}
    scan.place(3, 1, 2, values[cands.searchsorted(2)], block.rest[0], updates)
    assert set(chain.factors) == {rest, (1, 3, 6)}
    for idx, f in chain.factors.items():
        ref = chain._build(idx)
        assert all(np.array_equal(a, b) for a, b in zip(f, ref))


def test_a_move_applies_the_updates_its_weights_computed(monkeypatch):
    # place stores the applied factors of the updates its block (or lone
    # row) scored, bit for bit, and scores no append or deletion of its own
    data, prior = _mixing_problem()
    place = sampler._Scan.place
    inside = []  # block scoring done inside place
    applied = 0
    in_place = False

    def spy(name, step):
        def wrapper(*args):
            if in_place:
                inside.append(name)
            return step(*args)
        return wrapper

    def placing(scan, i, h, lab, value, rest, updates):
        nonlocal applied, in_place
        expected = []
        for c in (h, lab):
            out = updates.get(c)
            if out is not None:
                assert not sampler._drifted(out.schur)
                expected.append(out.applied())
        in_place = True
        try:
            place(scan, i, h, lab, value, rest, updates)
        finally:
            in_place = False
        for f in expected:
            stored = scan.chain.factors[tuple(sorted(f.order.tolist()))]
            assert all(np.array_equal(a, b) for a, b in zip(stored, f))
            applied += 1

    monkeypatch.setattr(sampler._Scan, "_column", spy("_column", sampler._Scan._column))
    monkeypatch.setattr(sampler._Scan, "block", spy("block", sampler._Scan.block))
    monkeypatch.setattr(sampler._Scan, "lone", spy("lone", sampler._Scan.lone))
    monkeypatch.setattr(sampler._Scan, "place", placing)
    state = init_state(data, prior, CrpPrior(1.0), 4, init="single")
    for _ in range(20):
        gibbs_sweep(state, data)
    state.check_consistency(data)
    assert not inside, inside
    assert applied > 100, applied


def _oracle_log_w(data, prior, clusters, i, h, alpha, cands, new):
    """The log weights of point i of cluster h over cands, each from
    cluster_log_marginal; a singleton's own column is -inf."""
    def lm(idx):
        return cluster_log_marginal(data[sorted(idx)], prior)

    out = []
    for lab in cands:
        if lab == new:
            out.append(log(alpha) + lm((i,)))
        elif lab == h:
            rest = tuple(j for j in clusters[h] if j != i)
            out.append(log(len(rest)) + lm(clusters[h]) - lm(rest) if rest else -np.inf)
        else:
            idx = clusters[lab]
            out.append(log(len(idx)) + lm(idx + (i,)) - lm(idx))
    return np.array(out)


@pytest.mark.parametrize("batch", [1, 2])
def test_block_weights_match_direct_marginals(monkeypatch, batch):
    # every row a sweep scores agrees with the marginals of the partition
    # at its block's start, for points alone, in pairs and in larger
    # clusters, and a block cut short by a move is scored again, from the
    # row after the mover, against the partition that move left; batch 1
    # scores every block batched, batch 2 a lone row alone
    monkeypatch.setattr(sampler, "_BATCH", batch)
    data, prior = _mixing_problem(n=10)
    alpha = 0.7
    block, lone = sampler._Scan.block, sampler._Scan.lone
    seen = {"alone": 0, "pair": 0, "larger": 0, "rescored": 0, "lone": 0}
    last = []  # (lo, stop, the partition) of the last block

    def checked(scan, lo, hi, labels):
        clusters = dict(scan.clusters)
        if hi is None:
            out = lone(scan, lo, labels)
            seen["lone"] += 1
        else:
            out = block(scan, lo, hi, labels)
        for r in range(out.stop):
            i, h = lo + r, labels[lo + r]
            want = _oracle_log_w(data, prior, clusters, i, h, alpha,
                                 out.cands.tolist(), scan.new)
            assert out.ok[r]
            assert np.allclose(out.log_w[r], want, rtol=1e-10, atol=1e-10)
            assert np.array_equal(np.isinf(out.log_w[r]), np.isinf(want))
            size = len(clusters[h])
            seen["alone" if size == 1 else "pair" if size == 2 else "larger"] += 1
        # a block cut short by a move (not by a point alone relabelled)
        if last and last[0][0] < lo < last[0][0] + last[0][1]:
            seen["rescored"] += set(last[0][2].values()) != set(clusters.values())
        last[:] = [(lo, out.stop, clusters)]
        return out

    monkeypatch.setattr(sampler._Scan, "block", checked)
    monkeypatch.setattr(sampler._Scan, "lone", lambda scan, i, labels: checked(scan, i, None, labels))
    for seed, init in ((1, "single"), (2, "singletons")):
        state = init_state(data, prior, CrpPrior(alpha), seed, init=init)
        for _ in range(15):
            gibbs_sweep(state, data)
            last.clear()
        state.check_consistency(data)
    if batch == 1:
        assert seen.pop("lone") == 0
    assert min(seen.values()) > 5, seen


def test_a_lone_row_scores_as_a_block_of_one_row():
    # a lone row's vector products and scalars agree up to rounding with
    # its row of a block of all 12 rows (one matmul a cluster), on every
    # row of partitions with singletons, pairs and larger clusters
    data, prior = _mixing_problem(n=12)
    chain = sampler._ChainCache(data, prior)
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(20):
        labels = (rng.integers(1, 6, 12)).tolist()
        clusters = {}
        for j, lab in enumerate(labels):
            clusters.setdefault(lab, []).append(j)
        clusters = {lab: tuple(idx) for lab, idx in clusters.items()}
        log_ml = {lab: chain.log_marginal(idx) for lab, idx in clusters.items()}
        scan = sampler._Scan(chain, clusters, log_ml, 0.5)
        whole = scan.block(0, 12, labels)
        assert whole.stop == 12
        for i in range(12):
            lone = scan.lone(i, labels)
            assert lone.stop == 1
            assert np.array_equal(whole.cands, lone.cands)
            assert whole.home[i] == lone.home[0]
            assert (i in whole.relabel) == (lone.relabel == [0])
            assert np.allclose(whole.log_w[i], lone.log_w[0], rtol=1e-12, atol=1e-12)
            assert np.array_equal(np.isinf(whole.log_w[i]), np.isinf(lone.log_w[0]))
            assert whole.rest[i] == pytest.approx(lone.rest[0], rel=1e-12, abs=1e-12)
            for lab in clusters:
                a, b = whole.updates(i, labels[i], lab), lone.updates(0, labels[i], lab)
                assert a.keys() == b.keys()
                for c in a:
                    assert a[c].schur == pytest.approx(b[c].schur, rel=1e-12)
            checked += 1
    assert checked == 240


def _drifted_leave(chain, members, i):
    """A factor of members whose row for member i has w . w = 2, so its
    leave's Schur complement 1/2 < 1 drifted; z, s and log|A| are left
    exact, so every other member's leave still scores exactly."""
    f = chain._build(members)
    root = f.root.copy()
    pos = f.order.tolist().index(i)
    root[pos] *= np.sqrt(2.0 / root[pos].dot(root[pos]))
    return f._replace(root=root)


def test_one_drift_rule_for_lone_rows_and_blocks(monkeypatch):
    # drift at row 0 rebuilds the factor once, whether a lone row or a
    # block reaches it, and the row scores as cluster_log_marginal does;
    # drift at a later row r cuts a block at r, with no rebuild
    data, prior = _mixing_problem(n=8)
    chain = sampler._ChainCache(data, prior)
    members = tuple(range(8))
    labels = [1] * 8
    clusters = {1: members}
    log_ml = {1: _direct(data, prior, members)}
    alpha = 0.5
    builds = []
    build = sampler._ChainCache._build

    def counted(self, idx):
        builds.append(idx)
        return build(self, idx)

    monkeypatch.setattr(sampler._ChainCache, "_build", counted)

    def check(out, lo, rows):
        assert out.stop == rows
        for r in range(rows):
            want = _oracle_log_w(data, prior, clusters, lo + r, 1, alpha,
                                 out.cands.tolist(), scan.new)
            assert out.ok[r]
            assert np.allclose(out.log_w[r], want, rtol=1e-10, atol=1e-10)
            rest = tuple(j for j in members if j != lo + r)
            assert out.rest[r] == pytest.approx(_direct(data, prior, rest), rel=1e-10)

    for score, lo, rows in ((lambda: scan.lone(5, labels), 5, 1),
                            (lambda: scan.block(5, 8, labels), 5, 3)):
        chain.factors[members] = bad = _drifted_leave(chain, members, 5)
        builds.clear()
        scan = sampler._Scan(chain, dict(clusters), dict(log_ml), alpha)
        check(score(), lo, rows)
        assert builds == [members]
        assert chain.factors[members] is not bad
        for a, b in zip(chain.factors[members], build(chain, members)):
            assert np.array_equal(a, b)

    chain.factors[members] = bad = _drifted_leave(chain, members, 5)
    builds.clear()
    scan = sampler._Scan(chain, dict(clusters), dict(log_ml), alpha)
    check(scan.block(0, 8, labels), 0, 5)
    assert builds == [] and chain.factors[members] is bad


def test_a_scan_that_moves_no_point_takes_few_blocks(monkeypatch):
    # two well-separated groups of about 200 settle at k = 2 by the
    # fourth sweep; a scan of the settled state scores a few lone rows,
    # then blocks of _BATCH, twice as many, ... rows, at most _ROWS; a
    # count, without a timing
    n, p = 400, 10
    rng = np.random.default_rng(5)
    data = rng.standard_normal((n, p)) + rng.integers(0, 2, n)[:, None] * 10.0
    prior = robust_prior(p, RobustPriorSpec(1.0, 2.0))
    block, lone = sampler._Scan.block, sampler._Scan.lone
    calls = []

    def counted(scan, lo, hi, labels):
        calls.append(hi - lo)
        return block(scan, lo, hi, labels)

    def counted_lone(scan, i, labels):
        calls.append(1)
        return lone(scan, i, labels)

    monkeypatch.setattr(sampler._Scan, "block", counted)
    monkeypatch.setattr(sampler._Scan, "lone", counted_lone)
    state = init_state(data, prior, CrpPrior(1.0), 0, init="singletons")
    for _ in range(10):
        calls.clear()
        gibbs_sweep(state, data)
        if state.stay is not None:
            break
    assert state.stay is not None and state.k() == 2
    assert sum(calls) == n
    assert len(calls) <= 2 * np.log2(n) + 2, calls


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_is_rejected_with_its_position(bad):
    # every library entry point that takes observations checks them
    data, prior = _mixing_problem(n=6)
    data[2, 1] = bad
    part = Partition([1, 1, 1, 2, 2, 2])
    for evaluate in (
        lambda: init_state(data, prior, CrpPrior(1.0), 0),
        lambda: run_chain(data, prior, CrpPrior(1.0), sweeps=2, burnin=0, seed=0),
        lambda: cluster_log_marginal(data, prior, form="primal"),
        lambda: cluster_log_marginal(data, prior, form="dual"),
        lambda: merge_log_ratio(data, part, 1, 2, prior, CrpPrior(1.0)),
        lambda: projector_residual(data),
    ):
        with pytest.raises(DomainError, match="row 3, column 2"):
            evaluate()


def test_data_overflowing_the_gram_matrix_is_rejected():
    data, prior = _mixing_problem(n=6)
    data[0, 0] = 4.0
    crp = CrpPrior(1.0)
    calls = (
        lambda: init_state(data, prior, crp, 0),
        lambda: run_chain(data, prior, crp, sweeps=2, burnin=0, seed=0),
        lambda: cluster_log_marginal(data, prior),
        lambda: cluster_log_marginal(data, prior, form="primal"),
        lambda: cluster_log_marginal(data, prior, form="dual"),
        lambda: merge_log_ratio(data, Partition([1, 1, 1, 2, 2, 2]), 1, 2, prior, crp),
        lambda: projector_residual(data),
    )
    # at 1e308 the cross term of rows 1 and 5 overflows as well
    for big in (1e200, 1e308):
        data[4, 0] = big
        for call in calls:
            with pytest.raises(DomainError, match="row 5 overflows"):
                call()


def test_non_finite_weight_raises_and_rolls_back():
    data, prior = _mixing_problem(n=10)
    state = init_state(data, prior, CrpPrior(1.0), 3, init="singletons")
    state.log_ml[4] = np.nan
    before = list(state.labels)
    with pytest.raises(FloatingPointError, match="non-finite"):
        gibbs_sweep(state, data)
    assert state.labels == before


def _scaled_pairs(first):
    """Six rows in p = 3, those from 0-based row first on scaled by 1e80,
    where a pair's 2 x 2 determinant a c - g^2 overflows, and a prior."""
    data = np.random.default_rng(0).standard_normal((6, 3))
    data[first:] *= 1e80
    return data, NiwPrior(np.zeros(3), 1.0, 5.0, 1.0)


@pytest.mark.parametrize("first", [0, 3])
def test_a_non_finite_weight_names_its_data_row_1_based(first):
    # every pair's marginal is finite, but row first of the pair table is
    # nan: from singletons, 0-based point first is the first to read it
    # (each point reads its own row), and the singletons after it are its
    # candidates
    data, prior = _scaled_pairs(first)
    for i in range(6):
        for j in range(i):
            assert np.isfinite(_direct(data, prior, (j, i)))
    state = init_state(data, prior, CrpPrior(1.0), 0, init="singletons")
    state.chain.pair[first] = np.nan
    with pytest.raises(FloatingPointError, match=rf"for data row {first + 1}$"):
        gibbs_sweep(state, data)
    assert state.labels == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("first", [0, 3])
def test_pair_table_holds_where_its_determinant_overflows(first):
    # off the diagonal, the table matches cluster_log_marginal however
    # a c - g^2 overflowed, and a chain from singletons runs clean
    data, prior = _scaled_pairs(first)
    state = init_state(data, prior, CrpPrior(1.0), 0, init="singletons")
    for i in range(6):
        for j in range(6):
            if i != j:
                direct = _direct(data, prior, (i, j))
                assert abs(state.chain.pair[i, j] - direct) <= 1e-14 * abs(direct)
    run_chain(data, prior, CrpPrior(1.0), sweeps=20, burnin=0, seed=0,
              init="singletons", debug=True)


def test_failed_sweep_rolls_back_completely(monkeypatch):
    data, prior = _mixing_problem(n=20)
    crp = CrpPrior(1.0)

    def sweep_values(state):
        return list(state.labels), dict(state.log_ml)

    ref = init_state(data, prior, crp, 5, init="single")
    expected = [sweep_values(gibbs_sweep(ref, data)) for _ in range(8)]

    state = init_state(data, prior, crp, 5, init="single")
    for sweep in range(8):
        if sweep in (1, 4):
            chain = state.chain
            calls = []

            def failing(score):
                def wrapper(scan, lo, *args):
                    calls.append(lo)
                    if len(calls) == 13:
                        raise FloatingPointError("injected")
                    return score(scan, lo, *args)
                return wrapper

            monkeypatch.setattr(sampler._Scan, "block", failing(sampler._Scan.block))
            monkeypatch.setattr(sampler._Scan, "lone", failing(sampler._Scan.lone))
            factors = dict(chain.factors)
            with pytest.raises(FloatingPointError, match="injected"):
                gibbs_sweep(state, data)
            monkeypatch.undo()
            assert chain.factors == factors
        gibbs_sweep(state, data)
        assert sweep_values(state) == expected[sweep]


@pytest.mark.parametrize("rows", [8, 12])
def test_sweep_rejects_data_of_another_length(rows):
    # a 10-point state swept with 8 or 12 rows is refused before anything
    # changes; the next sweep with its own data is the one a twin draws
    data, prior = _mixing_problem(n=12)
    state = init_state(data[:10], prior, CrpPrior(1.0), 6, init="single")
    twin = init_state(data[:10], prior, CrpPrior(1.0), 6, init="single")
    gibbs_sweep(state, data[:10])
    gibbs_sweep(twin, data[:10])
    chain, factors = state.chain, dict(state.chain.factors)
    before = (list(state.labels), dict(state.clusters), dict(state.log_ml),
              state.rng.bit_generator.state, state.sweep_index, state.stay)
    with pytest.raises(InvalidConfig, match=f"10 labels, data of shape \\({rows}, 3\\)"):
        gibbs_sweep(state, data[:rows])
    assert (list(state.labels), dict(state.clusters), dict(state.log_ml),
            state.rng.bit_generator.state, state.sweep_index, state.stay) == before
    assert state.chain is chain and chain.factors == factors
    gibbs_sweep(state, data[:10])
    gibbs_sweep(twin, data[:10])
    assert state.labels == twin.labels and state.log_ml == twin.log_ml


def test_state_without_its_cache_continues_the_chain():
    data, prior = _mixing_problem(n=20)
    state = init_state(data, prior, CrpPrior(1.0), 8, init="single")
    for _ in range(3):
        gibbs_sweep(state, data)
    fresh = init_state(data, prior, CrpPrior(1.0), 8, init="single")
    fresh.labels = list(state.labels)
    fresh.clusters = dict(state.clusters)
    fresh.log_ml = dict(state.log_ml)
    fresh.rng.bit_generator.state = state.rng.bit_generator.state
    fresh.chain = None  # rebuilt, with its factors, on the next sweep
    for _ in range(3):
        gibbs_sweep(state, data)
        gibbs_sweep(fresh, data)
        assert fresh.labels == state.labels
        assert set(fresh.chain.factors) == {
            idx for idx in fresh.clusters.values() if len(idx) > 1
        }
    fresh.check_consistency(data)


def _stay_problem():
    # at this seed the five chains below settle in 239 of their 1,500
    # sweeps, and a valid record precedes a move in 256
    rng = np.random.default_rng(2)
    data = rng.standard_normal((8, 3)) + rng.integers(0, 3, 8)[:, None] * 2.0
    return data, NiwPrior(np.zeros(3), 0.5, 5.0, 1.0)


def _settled(data, prior, seed):
    """A chain from singletons whose last sweep left a stay record."""
    state = init_state(data, prior, CrpPrior(1.0), seed, init="singletons")
    for _ in range(300):
        gibbs_sweep(state, data)
        if state.stay is not None:
            return state
    raise AssertionError("the chain did not settle")


def test_stay_test_matches_scalar_sweeps():
    # a hand loop answers a sweep by the stay test when it can and scans it
    # otherwise; its twin scans every sweep, and both must agree bit for
    # bit after every sweep
    data, prior = _stay_problem()
    answered = moved = 0
    for seed in range(5):
        state = init_state(data, prior, CrpPrior(1.0), seed, init="singletons")
        twin = init_state(data, prior, CrpPrior(1.0), seed, init="singletons")
        for _ in range(300):
            stay = state.stay
            if stay is not None and stay.count(state, 1):
                assert state.stay is stay
                answered += 1
            else:
                gibbs_sweep(state, data)
                if stay is not None:
                    assert state.stay is None  # the scan moved a point
                    moved += 1
            gibbs_sweep(twin, data)
            assert state.labels == twin.labels
            assert state.log_ml == twin.log_ml
            assert state.rng.bit_generator.state == twin.rng.bit_generator.state
            assert state.sweep_index == twin.sweep_index
        state.check_consistency(data)
    assert answered > 100 and moved > 100, (answered, moved)


def test_scan_that_moves_no_point_keeps_log_ml():
    # a stay record is valid only while log_ml equals the value recorded,
    # so a scan that moves no point must leave log_ml as it found it, the
    # marginals of two-point clusters included (a small alpha keeps pairs)
    data, prior = _stay_problem()
    still = with_pair = 0
    for seed in range(5):
        state = init_state(data, prior, CrpPrior(0.3), seed, init="singletons")
        for _ in range(300):  # every gibbs_sweep is a scan
            labels, log_ml = list(state.labels), dict(state.log_ml)
            gibbs_sweep(state, data)
            if state.stay is not None:
                assert state.labels == labels
                assert state.log_ml == log_ml
                still += 1
                with_pair += any(len(idx) == 2 for idx in state.clusters.values())
    assert still > 200 and with_pair > 40, (still, with_pair)


@pytest.mark.parametrize("seed, n", [(0, 1), (1, 8), (2, 400), (3, 1000)])
def test_vector_draw_equals_scalar_draws(seed, n):
    # a sweep draws its n uniforms in one call; the chain's stream is that
    # of one scalar draw a point
    vector = np.random.default_rng(seed)
    scalar = np.random.default_rng(seed)
    drawn = vector.random(n)
    assert drawn.tolist() == [scalar.random() for _ in range(n)]
    assert vector.bit_generator.state == scalar.bit_generator.state


def _answered_next(data, prior, seed):
    """A settled chain whose stay record answers its next sweep."""
    state = _settled(data, prior, seed)
    for _ in range(300):
        rng_state, sweep_index = state.rng.bit_generator.state, state.sweep_index
        if state.stay is not None and state.stay.count(state, 1):
            # give the answered sweep back
            state.rng.bit_generator.state = rng_state
            state.sweep_index = sweep_index
            return state
        gibbs_sweep(state, data)
    raise AssertionError("no sweep answered by the stay test")


def _move_by_hand(state, data):
    # point 0 joins another cluster; labels and clusters agree, log_ml is left
    h = state.labels[0]
    lab = next(lab for lab in state.clusters if lab != h)
    state.labels[0] = lab
    for c in (h, lab):
        state.clusters[c] = tuple(j for j, x in enumerate(state.labels) if x == c)
    return data


def _new_data(state, data):
    return data[::-1].copy()


def _new_crp(state, data):
    state.crp = CrpPrior(1e6)
    return data


@pytest.mark.parametrize("edit", [_move_by_hand, _new_data, _new_crp])
def test_edited_state_invalidates_the_stay_record(edit):
    # the record of the last sweep would answer the next one, but the
    # state has changed since; gibbs_sweep ignores any record, so the sweep
    # is the scan of a state without one
    data, prior = _stay_problem()
    state = _answered_next(data, prior, 1)
    data = edit(state, data)
    twin = init_state(data, prior, state.crp, 0)
    twin.labels = list(state.labels)
    twin.clusters = dict(state.clusters)
    twin.log_ml = dict(state.log_ml)
    twin.rng.bit_generator.state = state.rng.bit_generator.state
    gibbs_sweep(state, data)
    gibbs_sweep(twin, data)
    assert state.labels == twin.labels
    assert state.rng.bit_generator.state == twin.rng.bit_generator.state


def test_non_finite_log_marginal_after_a_stay_record_rolls_back():
    data, prior = _stay_problem()
    state = _answered_next(data, prior, 1)
    assert state.k() > 1
    # point 0 is outside the cluster edited, so it reads the value before
    # any point of that cluster refreshes it
    lab = max(state.clusters, key=lambda c: state.clusters[c][0])
    state.log_ml[lab] = np.nan
    before = (list(state.labels), dict(state.log_ml), state.rng.bit_generator.state)
    with pytest.raises(FloatingPointError, match="non-finite"):
        gibbs_sweep(state, data)
    assert state.labels == before[0]
    assert state.log_ml.keys() == before[1].keys() and np.isnan(state.log_ml[lab])
    assert state.rng.bit_generator.state == before[2]


def test_failed_scan_after_a_stay_test_restores_the_rng(monkeypatch):
    # a count answers some sweeps and stops short at one that moves a
    # point; the scan of that sweep fails and leaves the RNG where the
    # count left it, so the retried scan draws the same uniforms
    data, prior = _stay_problem()
    ref = _settled(data, prior, 2)
    state = _settled(data, prior, 2)
    for _ in range(300):
        done = 0 if state.stay is None else state.stay.count(state, 300)
        for _ in range(done):
            gibbs_sweep(ref, data)  # a scan of an answered sweep moves no point
        if done and state.stay is None:
            break
        if not done:
            gibbs_sweep(state, data)
            gibbs_sweep(ref, data)
    assert done and state.stay is None
    assert state.labels == ref.labels
    rng_state = state.rng.bit_generator.state
    assert rng_state == ref.rng.bit_generator.state
    labels = list(state.labels)
    def failing(scan, lo, *args):
        raise FloatingPointError("injected")

    monkeypatch.setattr(sampler._Scan, "block", failing)
    monkeypatch.setattr(sampler._Scan, "lone", failing)
    with pytest.raises(FloatingPointError, match="injected"):
        gibbs_sweep(state, data)
    assert state.rng.bit_generator.state == rng_state
    assert state.labels == labels
    assert state.stay is None
    monkeypatch.undo()
    for _ in range(5):
        gibbs_sweep(state, data)
        gibbs_sweep(ref, data)
        assert state.labels == ref.labels
        assert state.log_ml == ref.log_ml
        assert state.rng.bit_generator.state == ref.rng.bit_generator.state


def _scanned_summary(data, prior, seed, sweeps, burnin):
    """run_chain's summary from a hand loop of gibbs_sweep, which scans
    every sweep."""
    state = init_state(data, prior, CrpPrior(1.0), seed, init="singletons")
    n = len(state.labels)
    co = np.zeros((n, n))
    k_trace, kept = [], []
    for sweep in range(sweeps):
        gibbs_sweep(state, data)
        k_trace.append(state.k())
        if sweep >= burnin:
            lab = np.asarray(state.labels)
            co += lab[:, None] == lab[None, :]
            kept.append(tuple(state.labels))
    ks = k_trace[burnin:]
    k_mode = min(ks, key=lambda k: (-ks.count(k), k))
    return co / (sweeps - burnin), tuple(k_trace), k_mode, tuple(kept)


@pytest.mark.parametrize("rows", [None, 1, 3])
def test_block_stay_tests_equal_per_sweep_scans(monkeypatch, rows):
    # rows = 1 gives one-row blocks, rows = 3 runs that span several
    # blocks and failures inside one; None keeps the module's block
    data, prior = _stay_problem()
    n = len(data)
    if rows is not None:
        monkeypatch.setattr(sampler, "_BLOCK", rows * n)
    calls = []  # (limit, answered) of the counts run_chain makes
    count = sampler._Stay.count

    def spy(self, state, limit):
        done = count(self, state, limit)
        if done or limit > 1:
            calls.append((limit, done))
        return done

    monkeypatch.setattr(sampler._Stay, "count", spy)
    for seed in range(5):
        kw = dict(sweeps=300, seed=seed, init="singletons")
        run_chain(data, prior, CrpPrior(1.0), burnin=0, **kw)
        # a burnin that falls inside a run of answered sweeps
        burnin = next(301 - limit for limit, done in calls[::-1] if done > 1)
        out = run_chain(data, prior, CrpPrior(1.0), burnin=burnin, **kw)
        co, k_trace, k_mode, kept = _scanned_summary(data, prior, seed, 300, burnin)
        assert out.co_clustering.tobytes() == co.tobytes()
        assert out.k_trace == k_trace
        assert out.k_mode == k_mode
        assert out.label_trace == kept
    answered = [done for _, done in calls if done]
    assert sum(answered) > 200 and max(answered) > (rows or 1), calls
    if rows == 3:
        assert any(0 < done < limit and done % 3 for limit, done in calls), calls


def test_stay_count_rewinds_the_rng():
    # after count returns j the generator is where a twin is after j * n
    # draws, and sweep_index has moved by j; a count that stops short of
    # its limit drops the record, and one that reaches it keeps it
    data, prior = _stay_problem()
    n = len(data)
    seen = set()
    for seed in range(5):
        state = _settled(data, prior, seed)
        for _ in range(200):
            stay = state.stay
            if stay is None:
                gibbs_sweep(state, data)
                continue
            for limit in (1, 2, 300):
                twin = np.random.default_rng()
                twin.bit_generator.state = state.rng.bit_generator.state
                index = state.sweep_index
                done = stay.count(state, limit)
                twin.random(done * n)
                assert 0 <= done <= limit
                assert state.rng.bit_generator.state == twin.bit_generator.state
                assert state.sweep_index == index + done
                assert (state.stay is stay) == (done == limit)
                seen.add((done > 0, done == limit))
                state.stay = stay  # nothing has moved, so the record still holds
            gibbs_sweep(state, data)
    assert seen >= {(False, False), (True, True), (True, False)}, seen


def test_run_chain_stay_tests_each_sweep_once(monkeypatch):
    # the sweeps each count tests: those it answers and the one it stopped
    # at; a sweep the test does not answer is scanned without a second test
    data, prior = _stay_problem()
    tested = []  # (chain seed, sweep index) of each stay-tested sweep
    scanning = []  # nonempty inside gibbs_sweep
    count, sweep = sampler._Stay.count, sampler.gibbs_sweep

    def counted(self, state, limit):
        assert not scanning, "gibbs_sweep called _Stay.count"
        start = state.sweep_index
        done = count(self, state, limit)
        stop = start + done + 1 + (done < limit)
        tested.extend((seed, j) for j in range(start + 1, stop))
        return done

    def swept(state, data):
        scanning.append(True)
        try:
            return sweep(state, data)
        finally:
            scanning.pop()

    monkeypatch.setattr(sampler._Stay, "count", counted)
    monkeypatch.setattr(sampler, "gibbs_sweep", swept)
    for seed in range(5):
        run_chain(data, prior, CrpPrior(1.0), sweeps=300, burnin=0, seed=seed,
                  init="singletons")
    assert len(tested) == len(set(tested)) > 300, len(tested)


def test_debug_checks_after_each_block_and_scan(monkeypatch):
    data, prior = _stay_problem()
    kw = dict(sweeps=300, burnin=20, seed=3, init="singletons")
    plain = run_chain(data, prior, CrpPrior(1.0), **kw)
    steps, checks = [], []
    sweep = sampler.gibbs_sweep
    count = sampler._Stay.count
    check = sampler.SamplerState.check_consistency

    def swept(state, data):
        out = sweep(state, data)
        steps.append(state.sweep_index)
        return out

    def counted(self, state, limit):
        done = count(self, state, limit)
        if done:
            steps.append(state.sweep_index)
        return done

    def checked(self, data, *args):
        checks.append(self.sweep_index)
        return check(self, data, *args)

    monkeypatch.setattr(sampler, "gibbs_sweep", swept)
    monkeypatch.setattr(sampler._Stay, "count", counted)
    monkeypatch.setattr(sampler.SamplerState, "check_consistency", checked)
    debug = run_chain(data, prior, CrpPrior(1.0), debug=True, **kw)
    assert debug.co_clustering.tobytes() == plain.co_clustering.tobytes()
    assert debug.k_trace == plain.k_trace
    assert debug.k_mode == plain.k_mode
    assert debug.label_trace == plain.label_trace
    # one check after each block or scan, at the sweep it ended on
    assert checks == steps
    assert checks[-1] == 300 and len(checks) < 300


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="with n > p and data far above sqrt(lambda0) in scale, the chain's "
    "dual-form marginals drift from cluster_log_marginal by a relative 4.4e-7, "
    "past the debug check's 1e-8",
)
def test_dual_marginals_hold_at_large_data_scale():
    y = np.random.default_rng(0).standard_normal((30, 3)) * 1e5
    run_chain(y, NiwPrior(np.zeros(3), 1.0, 7.0, 1.0), CrpPrior(1.0), sweeps=5,
              burnin=0, seed=0, debug=True)
