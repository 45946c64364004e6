"""Conditioning-based correlated rounding.

Samples a subset of a ground set so that every element's inclusion
probability equals its prescribed marginal exactly, while pairwise joint
statistics approximately track the prescribed pair values.  The scheme:
draw the number t of "seed" elements uniformly from {0, 1}, pick the seed
uniformly, include it with its marginal, then include every other element
independently with its seed-conditioned marginal.  The marginals carry pair
joints only (what an order-3 lift provides once a pivot is conditioned on),
and conditioning on t seeds needs joints of order t + 1, so the sampler
conditions on at most one seed.  Exactness of the single-element marginals
is a law-of-total-probability fact; the residual pairwise error is computed
exactly by enumerating the seed branches, not assumed, and that value is
what downstream budget checks use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Mapping

import numpy as np

from .core import Pair, pair_key

MASS_FLOOR = 1e-12
MAX_RESAMPLES = 32


class SamplingError(RuntimeError):
    pass


@dataclass(frozen=True)
class ConditionedMarginals:
    """Marginals and pair joints of a conditioned pseudo-distribution.

    ``ground`` holds the element ids (atom representatives, in the rounding
    use); ``pair`` maps canonical id pairs to joint inclusion weights.
    """

    ground: tuple[int, ...]
    marginal: Mapping[int, float]
    pair: Mapping[Pair, float]

    def __post_init__(self) -> None:
        for v in self.ground:
            mv = self.marginal[v]
            if not (-1e-9 <= mv <= 1 + 1e-9):
                raise ValueError(f"marginal of {v} is {mv}, outside [0,1]")
        for (u, v), pv in self.pair.items():
            cap = min(self.marginal[u], self.marginal[v]) + 1e-9
            if pv > cap or pv < -1e-9:
                raise ValueError(f"pair value y'_{(u, v)} = {pv} violates box bounds")

    def value_of(self, vs: tuple[int, ...]) -> float:
        """Joint inclusion weight of at most two ground elements."""
        k = len(vs)
        if k == 0:
            return 1.0
        if k == 1:
            return min(1.0, max(0.0, float(self.marginal[vs[0]])))
        if k == 2:
            return min(1.0, max(0.0, float(self.pair[pair_key(*vs)])))
        raise ValueError(f"joint of order {k} not available")

    def pseudo_prob(self, inside: tuple[int, ...], outside: tuple[int, ...]) -> float:
        """Weight of the event (all of `inside` in, all of `outside` out),
        by inclusion-exclusion; tiny negatives are clamped to zero."""
        total = 0.0
        for k in range(len(outside) + 1):
            for extra in combinations(outside, k):
                total += (-1) ** k * self.value_of(tuple(inside) + extra)
        return max(0.0, total)

    def fractional(self) -> list[int]:
        """Elements whose marginal is strictly inside (0, 1)."""
        return [v for v in self.ground if MASS_FLOOR < self.marginal[v] < 1 - MASS_FLOOR]


def _conditional_inclusion(
    m: ConditionedMarginals, v: int, seeds_in: tuple[int, ...], seeds_out: tuple[int, ...]
) -> float:
    den = m.pseudo_prob(seeds_in, seeds_out)
    if den < MASS_FLOOR:
        raise ZeroDivisionError
    num = m.pseudo_prob(tuple(seeds_in) + (v,), seeds_out)
    return min(1.0, max(0.0, num / den))


def rt_sample(m: ConditionedMarginals, rng: np.random.Generator) -> set[int]:
    """One correlated-rounding draw; Pr[v in C] equals m.marginal[v] exactly.

    Elements with marginal 0 or 1 are decided deterministically (they do and
    must carry no error).  A seed branch whose conditioned mass underflows is
    resampled, with a bounded number of retries.
    """
    ground = m.ground
    t_max = min(1, len(ground))  # at most one seed, see the module docstring
    for _attempt in range(MAX_RESAMPLES):
        try:
            t = int(rng.integers(0, t_max + 1)) if t_max > 0 else 0
            seeds = tuple(sorted(rng.choice(len(ground), size=t, replace=False).tolist()))
            seeds = tuple(ground[i] for i in seeds)
            seeds_in: tuple[int, ...] = ()
            seeds_out: tuple[int, ...] = ()
            for sv in seeds:
                p_in = _conditional_inclusion(m, sv, seeds_in, seeds_out)
                if rng.random() < p_in:
                    seeds_in += (sv,)
                else:
                    seeds_out += (sv,)
            chosen = set(seeds_in)
            for v in ground:
                if v in seeds:
                    continue
                p = _conditional_inclusion(m, v, seeds_in, seeds_out)
                if rng.random() < p:
                    chosen.add(v)
            return chosen
        except ZeroDivisionError:
            continue
    raise SamplingError(f"conditioned mass below {MASS_FLOOR} after {MAX_RESAMPLES} retries")


# ---------------------------------------------------------------------------
# Exact branch enumeration (independent of the sampler's code path)
# ---------------------------------------------------------------------------


def enumerate_branches(m: ConditionedMarginals) -> Iterator[tuple[float, dict[int, float]]]:
    """All (branch weight, per-element conditional inclusion) pairs.

    A branch is a seed count t (0 or 1), a seed subset, and an in/out
    assignment of the seeds; its weight is the probability the sampler
    reaches it.  Seeds have conditional inclusion 0 or 1 in their branch.
    Weights sum to one up to the mass floor (assignments below it are
    skipped; the sampler resamples them, and their total weight is
    negligible).
    """
    ground = m.ground
    t_max = min(1, len(ground))
    p_t = 1.0 / (t_max + 1)
    for t in range(t_max + 1):
        n_subsets = math.comb(len(ground), t)
        for seeds in combinations(ground, t):
            for pattern in range(1 << t):
                s_in = tuple(seeds[i] for i in range(t) if pattern >> i & 1)
                s_out = tuple(seeds[i] for i in range(t) if not pattern >> i & 1)
                mass = m.pseudo_prob(s_in, s_out)
                if mass < MASS_FLOOR:
                    continue
                cond: dict[int, float] = {v: 1.0 for v in s_in}
                cond.update({v: 0.0 for v in s_out})
                for v in ground:
                    if v not in cond:
                        cond[v] = _conditional_inclusion(m, v, s_in, s_out)
                yield p_t * mass / n_subsets, cond


def exact_inclusion_probabilities(m: ConditionedMarginals) -> dict[int, float]:
    """Pr[v in C] by exhaustive seed-branch enumeration."""
    probs = dict.fromkeys(m.ground, 0.0)
    for weight, cond in enumerate_branches(m):
        for v in m.ground:
            probs[v] += weight * cond[v]
    return probs


def exact_pair_probabilities(m: ConditionedMarginals) -> dict[Pair, float]:
    """Pr[v and w both in C] by branch enumeration; elements are independent
    within a branch, so the joint is the product of conditionals."""
    probs = {pair_key(u, v): 0.0 for (u, v) in combinations(m.ground, 2)}
    for weight, cond in enumerate_branches(m):
        for (u, v) in probs:
            probs[(u, v)] += weight * cond[u] * cond[v]
    return probs


# ---------------------------------------------------------------------------
# Measured pairwise error
# ---------------------------------------------------------------------------


def measure_pairwise_error(m: ConditionedMarginals) -> float:
    """Exact mean |Pr[v,w in C] - y'_vw| over pairs of elements with
    fractional marginals, with Pr[v,w in C] from branch enumeration; this is
    the correlation error eps_r that the guarantee charges.  Deterministically
    decided elements are excluded (they carry no error)."""
    frac = m.fractional()
    if len(frac) < 2:
        return 0.0
    both = exact_pair_probabilities(m)
    pairs = [pair_key(u, v) for (u, v) in combinations(frac, 2)]
    return sum(abs(both[p] - m.value_of(p)) for p in pairs) / len(pairs)


def contract_to_representatives(
    vertices, atom_of
) -> tuple[list[int], dict[int, list[int]]]:
    """Group vertices by atom; each group is keyed by its smallest member.
    Returns (sorted representative ids, representative -> full member list)."""
    groups: dict[int, list[int]] = {}
    for v in sorted(vertices):
        rep = min(atom_of(v))
        groups.setdefault(rep, []).append(v)
    reps = sorted(groups)
    return reps, groups
