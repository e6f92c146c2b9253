"""Partitions, the CRP prior, and the adjusted Rand index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from niwclust.errors import DomainError, SameLabel, UnknownLabel
from niwclust.partition import (
    CrpPrior,
    Partition,
    adjusted_rand_index,
    eppf_log_ratio,
)
import oracles


def test_labels_canonicalized_by_first_appearance():
    part = Partition((7, 7, 3))
    assert part.labels == (1, 1, 2)
    assert part.k == 2
    assert part.sizes == (2, 1)
    assert Partition(["b", "a", "b"]).labels == (1, 2, 1)


def test_members_and_size():
    part = Partition([1, 2, 1, 3, 2])
    assert list(part.members(1)) == [0, 2]
    assert part.size(2) == 2
    with pytest.raises(UnknownLabel):
        part.members(4)
    with pytest.raises(UnknownLabel):
        part.size(0)


def test_merge_reduces_k_by_one():
    part = Partition([1, 2, 3, 2])
    merged = oracles.merge(part, 1, 3)
    assert merged.labels == (1, 2, 1, 2)
    assert merged.k == part.k - 1
    with pytest.raises(SameLabel):
        oracles.merge(part, 2, 2)


def test_empty_partition_rejected():
    with pytest.raises(ValueError):
        Partition([])


def test_crp_prior_validation():
    with pytest.raises(DomainError):
        CrpPrior(0.0)
    with pytest.raises(DomainError):
        CrpPrior(-1.5)
    for alpha in (np.inf, -np.inf, np.nan):
        with pytest.raises(DomainError, match="alpha must be positive and finite"):
            CrpPrior(alpha)


def test_eppf_ratio_matches_full_eppf_difference():
    # ratio across a merge must equal the difference of full partition
    # log probabilities, for every partition of 5 items with k >= 2
    for alpha in (0.5, 1.0, 2.7):
        crp = CrpPrior(alpha)
        for labels in oracles.set_partitions(5):
            part = Partition(labels)
            if part.k < 2:
                continue
            for h1 in range(1, part.k + 1):
                for h2 in range(h1 + 1, part.k + 1):
                    direct = (oracles.log_crp(part.labels, alpha)
                              - oracles.log_crp(oracles.merge(part, h1, h2).labels, alpha))
                    assert eppf_log_ratio(part, h1, h2, crp) == pytest.approx(
                        direct, rel=1e-12, abs=1e-12)


def test_eppf_ratio_depends_only_on_sizes():
    crp = CrpPrior(1.3)
    a = eppf_log_ratio(Partition([1, 1, 2, 2, 2, 3]), 1, 2, crp)
    b = eppf_log_ratio(Partition([3, 3, 1, 1, 1, 2]), 2, 1, crp)
    assert a == pytest.approx(b, rel=1e-15)


def test_crp_masses_sum_to_one():
    for n in (3, 4, 5):
        for alpha in (0.5, 1.0, 4.0):
            total = sum(np.exp(oracles.log_crp(q, alpha))
                        for q in oracles.set_partitions(n))
            assert total == pytest.approx(1.0, abs=1e-12)


def test_ari_identical_is_one():
    assert adjusted_rand_index([1, 2, 2, 3], [5, 9, 9, 1]) == 1.0
    assert adjusted_rand_index([1, 1, 1], [2, 2, 2]) == 1.0


def test_ari_accepts_partitions_and_sequences():
    a = Partition([1, 1, 2, 2])
    assert adjusted_rand_index(a, [1, 1, 2, 2]) == 1.0


def test_ari_known_disagreement():
    # one item moved across two balanced pairs
    val = adjusted_rand_index([1, 1, 2, 2], [1, 1, 1, 2])
    assert val == pytest.approx(oracles.ari_pairs([1, 1, 2, 2], [1, 1, 1, 2]))


def test_ari_length_mismatch():
    with pytest.raises(ValueError):
        adjusted_rand_index([1, 2], [1, 2, 3])


@given(st.lists(st.integers(0, 3), min_size=2, max_size=12),
       st.integers(0, 10 ** 6))
@settings(max_examples=120, deadline=None)
def test_ari_matches_pair_counting_oracle(labels_a, seed):
    rng = np.random.default_rng(seed)
    labels_b = rng.integers(0, 4, size=len(labels_a)).tolist()
    mine = adjusted_rand_index(labels_a, labels_b)
    ref = oracles.ari_pairs(labels_a, labels_b)
    assert mine == pytest.approx(ref, rel=1e-12, abs=1e-12)
    # symmetry and label-permutation invariance come along for free
    assert adjusted_rand_index(labels_b, labels_a) == pytest.approx(mine, abs=1e-12)


def test_ari_bounded_above_by_one():
    rng = np.random.default_rng(15)
    for _ in range(50):
        a = rng.integers(0, 3, size=10)
        b = rng.integers(0, 3, size=10)
        assert adjusted_rand_index(a, b) <= 1.0 + 1e-12
