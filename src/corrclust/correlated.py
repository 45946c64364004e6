"""Conditioning-based correlated rounding.

Samples a subset of a ground set so that every element's inclusion
probability equals its prescribed marginal exactly, while pairwise joint
statistics approximately track the prescribed pair values.  The scheme:
with probability 1/2 include every element independently with its
marginal; otherwise pick one "seed" element uniformly, include it with its
marginal, then include every other element independently with its
probability conditioned on the seed being in or out.  The marginals carry
pair joints only (what an order-3 lift provides once a pivot is conditioned
on), which is exactly what conditioning on one seed needs, so they are one
symmetric joint matrix: marginals on the diagonal, pair joints off it,
indexed by position in the ground set.  Exactness of the single-element
marginals is a law-of-total-probability fact; the residual pairwise error
is computed exactly from the table of seed branches (one row of
conditionals per branch), not assumed, and that value is what downstream
budget checks use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

MASS_FLOOR = 1e-12
MAX_RESAMPLES = 32


class SamplingError(RuntimeError):
    pass


def _unit(a: np.ndarray) -> np.ndarray:
    """``a`` clamped into [0, 1], with NaN and -0.0 read as 0.0."""
    return np.where(a > 0.0, np.minimum(a, 1.0), 0.0)


@dataclass(frozen=True, eq=False)
class ConditionedMarginals:
    """Marginals and pair joints of a conditioned pseudo-distribution.

    ``ground`` holds the element ids (atom representatives, in the rounding
    use); ``joint`` is a read-only symmetric array over positions in
    ``ground``: the marginals on the diagonal, the pair joints off it.  The
    constructor checks the same bounds as ever (marginals in [0, 1], pair
    joints in [0, min of their marginals], each up to 1e-9) and stores the
    array clamped into [0, 1].
    """

    ground: tuple[int, ...]
    joint: np.ndarray

    def __post_init__(self) -> None:
        ground = tuple(self.ground)
        joint = np.array(self.joint, dtype=float)
        if joint.shape != (len(ground), len(ground)) or (joint != joint.T).any():
            raise ValueError(f"joint must be a symmetric {len(ground)}x{len(ground)} array")
        rows = joint.tolist()
        for i, v in enumerate(ground):
            if not (-1e-9 <= rows[i][i] <= 1 + 1e-9):
                raise ValueError(f"marginal of {v} is {rows[i][i]}, outside [0,1]")
        for i, j in combinations(range(len(ground)), 2):
            if not (-1e-9 <= rows[i][j] <= min(rows[i][i], rows[j][j]) + 1e-9):
                raise ValueError(f"pair value y'_{(ground[i], ground[j])} = {rows[i][j]} violates box bounds")
        joint = _unit(joint)
        joint.setflags(write=False)
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "joint", joint)

    @classmethod
    def clamped(
        cls, ground: Sequence[int], marginal: Callable[[int], float], joint: Callable[[int, int], float]
    ) -> ConditionedMarginals:
        """Marginals ``marginal(a)`` and pair joints ``joint(a, b)``, each
        pair clamped into [0, min(m_a, m_b)]."""
        ground = tuple(ground)
        marg = [float(marginal(a)) for a in ground]
        out = np.diag(marg)
        for i, j in combinations(range(len(ground)), 2):
            out[i, j] = out[j, i] = min(min(marg[i], marg[j]), max(0.0, joint(ground[i], ground[j])))
        return cls(ground, out)

    @property
    def marginal(self) -> np.ndarray:
        """Marginals by position: the joint's diagonal."""
        return self.joint.diagonal()


def _given_seed(m: ConditionedMarginals, s: int, s_in: bool) -> tuple[float, np.ndarray] | None:
    """Branch "seed at position s is in" (``s_in``) or "out": its mass m_s or
    1 - m_s, and Pr[v in C | branch] for every position v, y_sv / m_s or
    (m_v - y_sv) / (1 - m_s), clamped into [0, 1] (the seed's own entry is
    1 or 0).  None when the mass is below MASS_FLOOR."""
    ms = m.joint[s, s]
    mass = ms if s_in else max(0.0, 1.0 - ms)
    if mass < MASS_FLOOR:
        return None
    num = m.joint[s] if s_in else m.marginal - m.joint[s]
    return mass, _unit(num / mass)


def rt_sample(m: ConditionedMarginals, rng: np.random.Generator) -> set[int]:
    """One correlated-rounding draw; Pr[v in C] equals v's marginal exactly.

    Elements with marginal 0 or 1 are decided deterministically (they do and
    must carry no error).  A seed branch whose conditioned mass underflows is
    resampled, with a bounded number of retries; a one-element ground has no
    other element to condition, so its seed branch is never resampled.
    """
    ground = m.ground
    k = len(ground)
    for _attempt in range(MAX_RESAMPLES):
        if not ground or rng.integers(0, 2) == 0:
            return {v for v, hit in zip(ground, rng.random(k) < m.marginal) if hit}
        s = int(rng.choice(k, size=1, replace=False)[0])
        s_in = bool(rng.random() < m.marginal[s])
        chosen = {ground[s]} if s_in else set()
        if k == 1:
            return chosen
        branch = _given_seed(m, s, s_in)
        if branch is None:
            continue
        others = [i for i in range(k) if i != s]
        hits = rng.random(k - 1) < branch[1][others]
        return chosen | {ground[i] for i, hit in zip(others, hits) if hit}
    raise SamplingError(f"conditioned mass below {MASS_FLOOR} after {MAX_RESAMPLES} retries")


# ---------------------------------------------------------------------------
# Exact branch enumeration (independent of the sampler's code path)
# ---------------------------------------------------------------------------


def enumerate_branches(m: ConditionedMarginals) -> tuple[np.ndarray, np.ndarray]:
    """The sampler's branches as ``(weights, conditionals)``: row b of
    ``conditionals`` is every position's inclusion probability in branch b,
    reached with probability ``weights[b]``.

    The no-seed branch comes first, then for each seed in ground order its
    "out" and its "in" branch.  Weights sum to one up to the mass floor (seed
    branches below it are skipped; the sampler resamples them, and their
    total weight is negligible).
    """
    k = len(m.ground)
    half = 0.5 if k else 1.0
    weights, rows = [half], [m.marginal]
    for s in range(k):
        for s_in in (False, True):
            branch = _given_seed(m, s, s_in)
            if branch is not None:
                weights.append(half * branch[0] / k)
                rows.append(branch[1])
    return np.array(weights), np.array(rows)


def exact_pair_probabilities(m: ConditionedMarginals) -> np.ndarray:
    """The sampler's own joint matrix, by branch enumeration: Pr[v and w both
    in C] off the diagonal (elements are independent within a branch, so a
    branch adds the product of conditionals), Pr[v in C] on it.  The upper
    triangle is mirrored, so the matrix is exactly symmetric."""
    k = len(m.ground)
    inc, both = np.zeros(k), np.zeros((k, k))
    for w, c in zip(*enumerate_branches(m)):
        inc += w * c
        both += np.outer(w * c, c)
    i, j = np.triu_indices(k, 1)
    both[j, i] = both[i, j]
    np.fill_diagonal(both, inc)
    return both


def exact_inclusion_probabilities(m: ConditionedMarginals) -> np.ndarray:
    """Pr[v in C] by position, by exhaustive seed-branch enumeration."""
    return exact_pair_probabilities(m).diagonal()


# ---------------------------------------------------------------------------
# Measured pairwise error
# ---------------------------------------------------------------------------


def measure_pairwise_error(m: ConditionedMarginals) -> float:
    """Exact mean |Pr[v,w in C] - y'_vw| over pairs of elements with
    fractional marginals, with Pr[v,w in C] from branch enumeration; this is
    the correlation error eps_r that the guarantee charges.  Deterministically
    decided elements are excluded (they carry no error)."""
    frac = [i for i, mv in enumerate(m.marginal.tolist()) if MASS_FLOOR < mv < 1 - MASS_FLOOR]
    if len(frac) < 2:
        return 0.0
    both, joint = exact_pair_probabilities(m).tolist(), m.joint.tolist()
    pairs = list(combinations(frac, 2))
    return sum(abs(both[i][j] - joint[i][j]) for i, j in pairs) / len(pairs)


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
