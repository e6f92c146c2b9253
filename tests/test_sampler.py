"""Collapsed Gibbs chain: exactness on tiny problems, plumbing, summaries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from niwclust import sampler
from niwclust.datagen import GenSpec, generate
from niwclust.errors import DomainError, InvalidConfig
from niwclust.niw import (
    ClusterView,
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
        return cluster_log_marginal(ClusterView(rows), prior)

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
                data, lambda rows: cluster_log_marginal(ClusterView(rows), prior),
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
            cluster_log_marginal(ClusterView(data), prior, form=form)
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
    # debug=True re-derives every cached marginal from scratch each sweep
    run_chain(data, prior, CrpPrior(1.5), sweeps=10, burnin=2, seed=21,
              debug=True)


def _mixing_problem(n=40, p=3, seed=7):
    # loosely separated groups under a weak prior: the chain keeps moving
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, p)) + rng.integers(0, 3, n)[:, None] * 1.0
    return data, NiwPrior(np.zeros(p), 0.5, p + 2.0, 1.0)


def _direct(data, prior, idx):
    return cluster_log_marginal(ClusterView(data[list(idx)]), prior)


def _exact_codes(monkeypatch):
    # code 1 << j makes each memo key the bitmask of its member set
    monkeypatch.setattr(sampler, "_point_codes", lambda n: [1 << j for j in range(n)])


def _members(key):
    return tuple(j for j in range(key.bit_length()) if key >> j & 1)


def _assert_matches_build(chain, idx, f, rel):
    """f is a _Factor of cluster idx that agrees with _build(idx) to rel."""
    assert isinstance(f, sampler._Factor)
    ref = chain._build(idx)
    perm = np.argsort(f.order)
    assert np.array_equal(f.order[perm], ref.order)
    assert np.allclose(f.inv[perm][:, perm], ref.inv, rtol=rel, atol=1e-12)
    assert np.allclose(f.b[perm], ref.b, rtol=rel, atol=1e-12)
    assert f.s == pytest.approx(ref.s, rel=rel)
    assert f.log_det == pytest.approx(ref.log_det, rel=rel, abs=rel)


def test_factor_drift_stays_below_1e8_over_many_moves(monkeypatch):
    data, prior = _mixing_problem()
    # a memo too small to answer anything sends every evaluation
    # through the incrementally updated factors
    monkeypatch.setattr(sampler, "_MEMO_BUDGET", data.shape[0])
    _exact_codes(monkeypatch)
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
    cached = [(idx, chain._factor_value(idx)) for idx in list(chain.factors)]
    cached += [(_members(key), value) for key, value in chain._memo.items()]
    assert len(cached) > len(chain.factors)
    for idx, value in cached:
        direct = _direct(data, prior, idx)
        assert value == pytest.approx(direct, rel=1e-8)


def test_batched_singleton_weights_match_per_candidate():
    data, prior = _mixing_problem(n=12, p=30)
    chain = sampler._ChainCache(data, prior)
    for i in (0, 5, 11):
        labs = [j for j in range(12) if j != i]
        pairs = [tuple(sorted((j, i))) for j in labs]
        values = chain.grown(
            i, labs, {j: (j,) for j in labs}, {j: chain.code((j,)) for j in labs}
        )
        assert len(values) == len(pairs) == 11
        for pair, value in zip(pairs, values):
            f = chain._build(pair)
            one_by_one = float(chain._value(2, f.log_det, f.s))
            assert value == pytest.approx(one_by_one, rel=1e-12)
            assert value == pytest.approx(_direct(data, prior, pair), rel=1e-10)
            assert chain._memo[chain.code(pair)] == value


def test_memo_stays_within_index_budget(monkeypatch):
    data, prior = _mixing_problem(n=12)
    monkeypatch.setattr(sampler, "_MEMO_BUDGET", 40)
    _exact_codes(monkeypatch)
    state = init_state(data, prior, CrpPrior(1.0), 2, init="single")
    chain = state.chain
    remember = chain._remember

    def checked(keys, values, size):
        assert size == sum(len(_members(k)) for k in keys)
        remember(keys, values, size)
        assert chain._memo_size == sum(len(_members(k)) for k in chain._memo) <= 40

    monkeypatch.setattr(chain, "_remember", checked)
    for _ in range(30):
        gibbs_sweep(state, data)
        # the factor store holds the current clusters and nothing else
        assert set(chain.factors) == {
            idx for idx in state.clusters.values() if len(idx) > 1
        }
    state.check_consistency(data)


def test_shared_memo_code_is_caught_by_the_debug_check(monkeypatch):
    # points 0 and 1 share a code, so e.g. {0, 2} and {1, 2} share a memo
    # key and one answers for the other; the debug check must see it
    data, prior = _mixing_problem(n=12)
    codes = sampler._point_codes

    def colliding(n):
        out = codes(n)
        out[1] = out[0]
        return out

    kw = dict(sweeps=30, burnin=0, seed=2, init="singletons", debug=True)
    run_chain(data, prior, CrpPrior(1.0), **kw)
    monkeypatch.setattr(sampler, "_point_codes", colliding)
    with pytest.raises(AssertionError, match="marginal cache off"):
        run_chain(data, prior, CrpPrior(1.0), **kw)


@given(seed=st.integers(0, 10 ** 6), steps=st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_factor_updates_match_direct_factorization(seed, steps):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((10, 6))
    chain = sampler._ChainCache(data, NiwPrior(np.zeros(6), 1.0, 8.0, 2.0))
    members = sorted(rng.choice(10, size=int(rng.integers(1, 10)), replace=False))
    f = chain._build(tuple(members))
    for _ in range(steps):
        outside = sorted(set(range(10)) - set(members))
        if outside and (len(members) == 1 or rng.random() < 0.5):
            j = int(rng.choice(outside))
            f = chain._border(f, j).applied()
            members.append(j)
        else:
            j = int(rng.choice(members))
            f = chain._deletion(f, j).applied()
            members.remove(j)
        members.sort()
        _assert_matches_build(chain, tuple(members), f, rel=1e-9)


def test_factor_is_not_mutated_by_update():
    data, prior = _mixing_problem(n=8)
    chain = sampler._ChainCache(data, prior)
    f = chain._build((1, 3, 4, 6))
    before = [a.copy() for a in (f.order, f.inv, f.b)] + [f.s, f.log_det]
    chain._border(f, 2).applied()
    chain._deletion(f, 4).applied()
    after = [f.order, f.inv, f.b, f.s, f.log_det]
    for old, new in zip(before, after):
        assert np.array_equal(old, new)


def test_drifted_factor_is_rebuilt():
    data, prior = _mixing_problem(n=8)
    chain = sampler._ChainCache(data, prior)
    members = (0, 2, 3, 5)
    chain.log_marginal(members)
    good = chain.factors[members]

    # (A^-1)_ii = 2 means a Schur complement of 1/2 < 1: drift
    chain.factors[members] = good._replace(inv=2.0 * np.eye(4))
    rest = (0, 2, 5)
    value = chain.removed(members, 3, chain.code(rest))
    assert value == pytest.approx(_direct(data, prior, rest), rel=1e-10)
    assert np.allclose(chain.factors[members].inv, good.inv)
    # a non-finite factor is drift too, for a grow as for a removal
    nan_factor = good._replace(inv=np.full((4, 4), np.nan))
    chain.factors[members] = nan_factor
    key = (0, 2, 3, 5, 7)
    (value,) = chain.grown(7, [1], {1: members}, {1: chain.code(members)})
    assert value == pytest.approx(_direct(data, prior, key), rel=1e-10)
    # and a move off or onto a drifted factor builds the new cluster
    # from its Gram block, for the cluster left as for the one joined
    pair = (1, 6)
    chain.factors = {
        members: nan_factor,
        pair: chain._build(pair)._replace(inv=np.full((2, 2), np.nan)),
    }
    chain.move(3, members, rest, pair, (1, 3, 6))
    assert set(chain.factors) == {rest, (1, 3, 6)}
    for idx, f in chain.factors.items():
        ref = chain._build(idx)
        assert all(np.array_equal(a, b) for a, b in zip(f, ref))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_is_rejected_with_its_position(bad):
    # every library entry point that takes observations checks them
    data, prior = _mixing_problem(n=6)
    data[2, 1] = bad
    part = Partition([1, 1, 1, 2, 2, 2])
    for evaluate in (
        lambda: init_state(data, prior, CrpPrior(1.0), 0),
        lambda: run_chain(data, prior, CrpPrior(1.0), sweeps=2, burnin=0, seed=0),
        lambda: cluster_log_marginal(ClusterView(data), prior, form="primal"),
        lambda: cluster_log_marginal(ClusterView(data), prior, form="dual"),
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
        lambda: cluster_log_marginal(ClusterView(data), prior, form="dual"),
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
            grown = chain.grown
            calls = []

            def failing(i, *args):
                calls.append(i)
                if len(calls) == 13:
                    raise FloatingPointError("injected")
                return grown(i, *args)

            monkeypatch.setattr(chain, "grown", failing)
            factors = dict(chain.factors)
            with pytest.raises(FloatingPointError, match="injected"):
                gibbs_sweep(state, data)
            monkeypatch.undo()
            assert chain.factors == factors
        gibbs_sweep(state, data)
        assert sweep_values(state) == expected[sweep]


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
