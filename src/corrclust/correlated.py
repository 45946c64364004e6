"""Conditioning-based correlated rounding.

Samples a subset of a ground set so that every element's inclusion
probability equals its prescribed marginal exactly, while pairwise joint
statistics approximately track the prescribed pair values.  The scheme:
with probability 1/2 include every element independently with its
marginal; otherwise pick one "seed" element uniformly, include it with its
marginal, then include every other element independently with its
probability conditioned on the seed being in or out.  The marginals carry
pair joints only (what an order-3 lift provides once a pivot is conditioned
on), which is exactly what conditioning on one seed needs.  Exactness of
the single-element marginals is a law-of-total-probability fact; the
residual pairwise error is computed exactly by enumerating the seed
branches, not assumed, and that value is what downstream budget checks use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Mapping, Sequence

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

    @classmethod
    def clamped(
        cls, ground: Sequence[int], marginal: Mapping[int, float], joint: Callable[[int, int], float]
    ) -> ConditionedMarginals:
        """Pair joints from ``joint(a, b)``, clamped into [0, min(m_a, m_b)]."""
        pair = {
            pair_key(a, b): min(min(marginal[a], marginal[b]), max(0.0, joint(a, b)))
            for (a, b) in combinations(ground, 2)
        }
        return cls(tuple(ground), marginal, pair)

    def value_of(self, vs: tuple[int, ...]) -> float:
        """Joint inclusion weight of one or two ground elements, in [0, 1]."""
        w = self.marginal[vs[0]] if len(vs) == 1 else self.pair[pair_key(*vs)]
        return min(1.0, max(0.0, float(w)))

    def fractional(self) -> list[int]:
        """Elements whose marginal is strictly inside (0, 1)."""
        return [v for v in self.ground if MASS_FLOOR < self.marginal[v] < 1 - MASS_FLOOR]


def _seed_mass(m: ConditionedMarginals, s: int, s_in: bool) -> float:
    """Weight of the event "seed s is in" (``s_in``) or "seed s is out"."""
    ms = m.value_of((s,))
    return ms if s_in else max(0.0, 1.0 - ms)


def _given_seed(m: ConditionedMarginals, s: int, s_in: bool, v: int) -> float:
    """Pr[v in C | seed s in or out]: y_sv / m_s, or max(0, m_v - y_sv) /
    (1 - m_s).  Raises ZeroDivisionError when the seed event's mass is below
    MASS_FLOOR."""
    den = _seed_mass(m, s, s_in)
    if den < MASS_FLOOR:
        raise ZeroDivisionError
    y = m.value_of((s, v))
    num = y if s_in else max(0.0, m.value_of((v,)) - y)
    return min(1.0, max(0.0, num / den))


def rt_sample(m: ConditionedMarginals, rng: np.random.Generator) -> set[int]:
    """One correlated-rounding draw; Pr[v in C] equals m.marginal[v] exactly.

    Elements with marginal 0 or 1 are decided deterministically (they do and
    must carry no error).  A seed branch whose conditioned mass underflows is
    resampled, with a bounded number of retries.
    """
    ground = m.ground
    for _attempt in range(MAX_RESAMPLES):
        if not ground or rng.integers(0, 2) == 0:
            return {v for v in ground if rng.random() < m.value_of((v,))}
        s = ground[int(rng.choice(len(ground), size=1, replace=False)[0])]
        s_in = rng.random() < m.value_of((s,))
        chosen = {s} if s_in else set()
        try:
            for v in ground:
                if v == s:
                    continue
                p = _given_seed(m, s, s_in, v)
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

    The no-seed branch comes first, then for each seed in ground order its
    "out" and its "in" branch; a branch's weight is the probability the
    sampler reaches it, and the seed's conditional inclusion is 0 or 1 in
    its own branch.  Weights sum to one up to the mass floor (seed branches
    below it are skipped; the sampler resamples them, and their total weight
    is negligible).
    """
    ground = m.ground
    half = 0.5 if ground else 1.0
    yield half, {v: m.value_of((v,)) for v in ground}
    for s in ground:
        for s_in in (False, True):
            mass = _seed_mass(m, s, s_in)
            if mass < MASS_FLOOR:
                continue
            cond = {v: _given_seed(m, s, s_in, v) for v in ground if v != s}
            cond[s] = float(s_in)
            yield half * mass / len(ground), cond


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
