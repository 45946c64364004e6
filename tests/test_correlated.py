from itertools import combinations

import numpy as np
import pytest

from corrclust.correlated import (
    ConditionedMarginals,
    enumerate_branches,
    exact_inclusion_probabilities,
    exact_pair_probabilities,
    measure_pairwise_error,
    rt_sample,
)


def mixture_marginals(n, k, seed):
    """Pair marginals of a random mixture of indicator vectors: always a
    genuine distribution."""
    rng = np.random.default_rng(seed)
    vecs = rng.random((k, n)) < rng.random((k, 1))
    wts = rng.dirichlet(np.ones(k))
    ground = tuple(range(n))
    marg = {v: float((wts * vecs[:, v]).sum()) for v in ground}
    pairs = {
        (u, v): float((wts * (vecs[:, u] & vecs[:, v])).sum())
        for (u, v) in combinations(ground, 2)
    }
    return ConditionedMarginals(ground, marg, pairs)


CORRELATED_PAIR = ConditionedMarginals((0, 1), {0: 0.5, 1: 0.5}, {(0, 1): 0.5})


def test_integral_marginals_are_deterministic():
    m = ConditionedMarginals(
        (0, 1, 2), {0: 1.0, 1: 0.0, 2: 1.0}, {(0, 1): 0.0, (0, 2): 1.0, (1, 2): 0.0}
    )
    rng = np.random.default_rng(0)
    draws = {frozenset(rt_sample(m, rng)) for _ in range(50)}
    assert draws == {frozenset({0, 2})}
    assert measure_pairwise_error(m) == 0.0


def test_single_vertex_frequency():
    m = ConditionedMarginals((7,), {7: 0.3}, {})
    rng = np.random.default_rng(1)
    hits = sum(7 in rt_sample(m, rng) for _ in range(20000))
    assert hits / 20000 == pytest.approx(0.3, abs=0.01)


def test_correlated_pair_two_branch_values():
    # exact two-branch computation: one seed on a perfectly correlated pair
    ex = exact_pair_probabilities(CORRELATED_PAIR)
    assert ex[(0, 1)] == pytest.approx(0.375, abs=1e-15)
    inc = exact_inclusion_probabilities(CORRELATED_PAIR)
    assert inc[0] == pytest.approx(0.5, abs=1e-15)
    # the sampler's joint frequency exceeds independent rounding
    rng = np.random.default_rng(2)
    both = sum(
        {0, 1} <= rt_sample(CORRELATED_PAIR, rng) for _ in range(20000)
    )
    assert both / 20000 > 0.25
    assert measure_pairwise_error(CORRELATED_PAIR) == pytest.approx(0.125, abs=1e-12)


def test_product_distribution_has_vanishing_error():
    m = ConditionedMarginals((0, 1), {0: 0.3, 1: 0.7}, {(0, 1): 0.21})
    assert measure_pairwise_error(m) == pytest.approx(0.0, abs=1e-12)


def test_marginal_exactness_by_enumeration():
    for seed in range(6):
        m = mixture_marginals(5, 7, seed)
        inc = exact_inclusion_probabilities(m)
        for v in m.ground:
            assert inc[v] == pytest.approx(m.marginal[v], abs=1e-12)
    m6 = mixture_marginals(6, 9, 99)
    inc = exact_inclusion_probabilities(m6)
    for v in m6.ground:
        assert inc[v] == pytest.approx(m6.marginal[v], abs=1e-12)


def test_branch_weights_sum_to_one():
    m = mixture_marginals(5, 6, 11)
    total = sum(w for w, _ in enumerate_branches(m))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_sampler_matches_enumeration():
    m = mixture_marginals(4, 5, 21)
    rng = np.random.default_rng(5)
    n = 30000
    counts = dict.fromkeys(m.ground, 0)
    pair_counts = {p: 0 for p in combinations(m.ground, 2)}
    for _ in range(n):
        c = rt_sample(m, rng)
        for v in c:
            counts[v] += 1
        for p in pair_counts:
            if p[0] in c and p[1] in c:
                pair_counts[p] += 1
    ex_pair = exact_pair_probabilities(m)
    for v in m.ground:
        se = 3 * np.sqrt(m.marginal[v] * (1 - m.marginal[v]) / n) + 1e-9
        assert abs(counts[v] / n - m.marginal[v]) < se
    for p in pair_counts:
        se = 3 * np.sqrt(ex_pair[p] * (1 - ex_pair[p]) / n) + 1e-9
        assert abs(pair_counts[p] / n - ex_pair[p]) < se


def test_constructor_validation():
    with pytest.raises(ValueError, match="marginal"):
        ConditionedMarginals((0,), {0: 1.5}, {})
    with pytest.raises(ValueError, match="box"):
        ConditionedMarginals((0, 1), {0: 0.2, 1: 0.9}, {(0, 1): 0.5})
