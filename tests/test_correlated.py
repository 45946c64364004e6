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


def mixture_marginals(n, k, seed, with_triples=True):
    """Pseudo-distribution from a random mixture of indicator vectors:
    always a genuine distribution, so any depth is consistent."""
    rng = np.random.default_rng(seed)
    vecs = rng.random((k, n)) < rng.random((k, 1))
    wts = rng.dirichlet(np.ones(k))
    ground = tuple(range(n))
    marg = {v: float((wts * vecs[:, v]).sum()) for v in ground}
    pairs = {
        (u, v): float((wts * (vecs[:, u] & vecs[:, v])).sum())
        for (u, v) in combinations(ground, 2)
    }
    triples = None
    if with_triples:
        triples = {
            (u, v, w): float((wts * (vecs[:, u] & vecs[:, v] & vecs[:, w])).sum())
            for (u, v, w) in combinations(ground, 3)
        }
    return ConditionedMarginals(ground, marg, pairs, triples)


CORRELATED_PAIR = ConditionedMarginals((0, 1), {0: 0.5, 1: 0.5}, {(0, 1): 0.5})


def test_integral_marginals_are_deterministic():
    m = ConditionedMarginals(
        (0, 1, 2), {0: 1.0, 1: 0.0, 2: 1.0}, {(0, 1): 0.0, (0, 2): 1.0, (1, 2): 0.0}
    )
    rng = np.random.default_rng(0)
    draws = {frozenset(rt_sample(m, 1, rng)) for _ in range(50)}
    assert draws == {frozenset({0, 2})}
    assert measure_pairwise_error(m) == 0.0


def test_single_vertex_frequency():
    m = ConditionedMarginals((7,), {7: 0.3}, {})
    rng = np.random.default_rng(1)
    hits = sum(7 in rt_sample(m, 1, rng) for _ in range(20000))
    assert hits / 20000 == pytest.approx(0.3, abs=0.01)


def test_correlated_pair_two_branch_values():
    # exact two-branch computation: depth 1 on a perfectly correlated pair
    ex = exact_pair_probabilities(CORRELATED_PAIR, 1)
    assert ex[(0, 1)] == pytest.approx(0.375, abs=1e-15)
    inc = exact_inclusion_probabilities(CORRELATED_PAIR, 1)
    assert inc[0] == pytest.approx(0.5, abs=1e-15)
    assert exact_pair_probabilities(CORRELATED_PAIR, 0)[(0, 1)] == pytest.approx(0.25)
    # the sampler's joint frequency exceeds independent rounding
    rng = np.random.default_rng(2)
    both = sum(
        {0, 1} <= rt_sample(CORRELATED_PAIR, 1, rng) for _ in range(20000)
    )
    assert both / 20000 > 0.25
    assert measure_pairwise_error(CORRELATED_PAIR) == pytest.approx(0.125, abs=1e-12)


def test_product_distribution_has_vanishing_error():
    m = ConditionedMarginals((0, 1), {0: 0.3, 1: 0.7}, {(0, 1): 0.21})
    assert measure_pairwise_error(m) == pytest.approx(0.0, abs=1e-12)


def test_marginal_exactness_by_enumeration():
    for seed in range(6):
        m = mixture_marginals(5, 7, seed)
        for depth in (0, 1, 2):
            inc = exact_inclusion_probabilities(m, depth)
            for v in m.ground:
                assert inc[v] == pytest.approx(m.marginal[v], abs=1e-12)
    m6 = mixture_marginals(6, 9, 99)
    inc = exact_inclusion_probabilities(m6, 1)
    for v in m6.ground:
        assert inc[v] == pytest.approx(m6.marginal[v], abs=1e-12)


def test_branch_weights_sum_to_one():
    m = mixture_marginals(5, 6, 11)
    for depth in (0, 1, 2):
        total = sum(w for w, _ in enumerate_branches(m, depth))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_sampler_matches_enumeration():
    m = mixture_marginals(4, 5, 21)
    rng = np.random.default_rng(5)
    n = 30000
    counts = dict.fromkeys(m.ground, 0)
    pair_counts = {p: 0 for p in combinations(m.ground, 2)}
    for _ in range(n):
        c = rt_sample(m, 1, rng)
        for v in c:
            counts[v] += 1
        for p in pair_counts:
            if p[0] in c and p[1] in c:
                pair_counts[p] += 1
    ex_pair = exact_pair_probabilities(m, 1)
    for v in m.ground:
        se = 3 * np.sqrt(m.marginal[v] * (1 - m.marginal[v]) / n) + 1e-9
        assert abs(counts[v] / n - m.marginal[v]) < se
    for p in pair_counts:
        se = 3 * np.sqrt(ex_pair[p] * (1 - ex_pair[p]) / n) + 1e-9
        assert abs(pair_counts[p] / n - ex_pair[p]) < se


def test_error_monotone_in_depth():
    # on distributions with triples available, deeper conditioning does not
    # increase the exact pair error
    for seed in (0, 1):
        m = mixture_marginals(5, 4, 100 + seed)
        errs = []
        for depth in (0, 1, 2):
            errs.append(measure_pairwise_error(m, depth=depth))
        slack = 1e-12
        assert errs[1] <= errs[0] + slack
        assert errs[2] <= errs[1] + slack


def test_constructor_validation():
    with pytest.raises(ValueError, match="marginal"):
        ConditionedMarginals((0,), {0: 1.5}, {})
    with pytest.raises(ValueError, match="box"):
        ConditionedMarginals((0, 1), {0: 0.2, 1: 0.9}, {(0, 1): 0.5})


def test_depth_capped_by_available_order():
    # no triples: depth silently capped at 1 seed, still exact marginals
    m = mixture_marginals(4, 5, 31, with_triples=False)
    inc = exact_inclusion_probabilities(m, 5)
    for v in m.ground:
        assert inc[v] == pytest.approx(m.marginal[v], abs=1e-12)
    rng = np.random.default_rng(6)
    rt_sample(m, 5, rng)  # does not raise
