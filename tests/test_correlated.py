import hashlib
import json
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


# A marginal of exactly 0 and one of exactly 1: seed 0 has no "in" branch
# and seed 1 no "out" branch, so the enumeration skips both.
PINNED_ENDS = ConditionedMarginals(
    (0, 1, 2, 3),
    {0: 0.0, 1: 1.0, 2: 0.4, 3: 0.7},
    {(0, 1): 0.0, (0, 2): 0.0, (0, 3): 0.0, (1, 2): 0.4, (1, 3): 0.7, (2, 3): 0.3},
)

# Recorded from the t-seed inclusion-exclusion sampler this module replaced:
# SHA-256 of 200 sorted draws from default_rng(0), then the reprs of
# measure_pairwise_error and exact_pair_probabilities.
GOLDEN = [
    (
        mixture_marginals(5, 7, 0),
        "3aec333a5638b6e9f0dc49aa73c10517a39024c0a13b959eec8ea3cd75ed894e",
        "0.07689043482085874",
        "{(0, 1): 0.32502139536918695, (0, 2): 0.3053811441407301, "
        "(0, 3): 0.29646876906796865, (0, 4): 0.14664605819068857, "
        "(1, 2): 0.5298952991331118, (1, 3): 0.5169734365256986, "
        "(1, 4): 0.21421710455732756, (2, 3): 0.5004352056028943, "
        "(2, 4): 0.20578442244739814, (3, 4): 0.202097441690184}",
    ),
    (
        mixture_marginals(6, 9, 99),
        "46ea0128b3df542d058246b094db32b189da46138bd839e1f53f6085d82add01",
        "0.11216473118877116",
        "{(0, 1): 0.3590719895434544, (0, 2): 0.3268244724252942, "
        "(0, 3): 0.31415345253627436, (0, 4): 0.250872631093039, "
        "(0, 5): 0.35322914643217873, (1, 2): 0.33152469771378873, "
        "(1, 3): 0.3187401546107772, (1, 4): 0.2548875599665131, "
        "(1, 5): 0.3590719895434544, (2, 3): 0.2918120413217541, "
        "(2, 4): 0.23130954159822056, (2, 5): 0.3268244724252942, "
        "(3, 4): 0.22302653016714397, (3, 5): 0.31415345253627436, "
        "(4, 5): 0.250872631093039}",
    ),
    (
        PINNED_ENDS,
        "2c80f675ccb4b849b1dc0a21b58dd6ce10995a2bb5a2927119e082d80424b695",
        "0.015000000000000013",
        "{(0, 1): 0.0, (0, 2): 0.0, (0, 3): 0.0, (1, 2): 0.39999999999999997, "
        "(1, 3): 0.7000000000000001, (2, 3): 0.285}",
    ),
]


@pytest.mark.parametrize("m, draws_sha, err_repr, pairs_repr", GOLDEN)
def test_sampler_golden_values(m, draws_sha, err_repr, pairs_repr):
    # the random stream and every float are pinned, not just the statistics
    rng = np.random.default_rng(0)
    draws = [sorted(rt_sample(m, rng)) for _ in range(200)]
    assert hashlib.sha256(json.dumps(draws).encode()).hexdigest() == draws_sha
    assert repr(measure_pairwise_error(m)) == err_repr
    assert repr(exact_pair_probabilities(m)) == pairs_repr
