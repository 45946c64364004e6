"""Atomic preclustering and admissible-edge construction.

Atoms are found by sparsifying the +graph: drop +edges whose endpoints are
not in weak agreement, drop +edges between two "light" vertices (those that
lost too many incident +edges), and take the connected components of size at
least two.  Admissible pairs are the degree-similar pairs with enough common
degree-similar neighbors, normalized so that all members of an atom end up
with identical admissible neighborhoods.

Threshold comparisons (agreement, lightness, degree similarity) are done in
exact rational arithmetic to avoid float boundary flakiness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Pair, PreclusteredInstance, SignedGraph


def _ratio(x: float) -> tuple[int, int]:
    """Numerator and denominator of the decimal-faithful rational for a
    parameter given as a float."""
    f = Fraction(str(x))
    return f.numerator, f.denominator


@dataclass(frozen=True)
class AgreementParams:
    """The preclustering parameter epsilon_q.

    epsilon_q is both the weak-agreement threshold (beta) and the lightness
    threshold (lambda) of the sparsification, and the degree-similarity
    ratio of admissibility; derived quantities: eps = sqrt(epsilon_q)
    (approximation slack of the preclustering) and eps_a = epsilon_q**6 / 2
    (cost lower-bound coefficient).
    """

    epsilon_q: float

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon_q < 1.0):
            raise ValueError("epsilon_q must lie in (0, 1)")

    @property
    def eps(self) -> float:
        return self.epsilon_q**0.5

    @property
    def eps_a(self) -> float:
        return self.epsilon_q**6 / 2


def in_weak_agreement(g: SignedGraph, u: int, v: int, i: int, beta: float) -> bool:
    """|N_u symdiff N_v| < i * beta * max(|N_u|, |N_v|), self-loops included.
    Compared by integer cross-multiplication (no float boundary effects)."""
    nu, nv = g.closed_neighborhood(u), g.closed_neighborhood(v)
    sym = len(nu ^ nv)
    num, den = _ratio(beta)
    return sym * den < i * num * max(len(nu), len(nv))


def _closed_degrees(g: SignedGraph) -> tuple[np.ndarray, np.ndarray]:
    """The n x n table of closed neighborhoods N_v (the sign table plus the
    self-loops) and the degrees |N_v| as Python ints, so products with the
    parameter's numerator and denominator stay exact."""
    closed = g.plus_table | np.eye(g.n, dtype=bool)
    return closed, closed.sum(axis=1).astype(object)


def atomic_preclustering(g: SignedGraph, params: AgreementParams) -> tuple[frozenset[int], ...]:
    """Sparsify the +graph and return its size >= 2 components as atoms: a
    +pair stays if its ends are in weak agreement (:func:`in_weak_agreement`,
    i = 1); a vertex that lost more than an epsilon_q share of its degree is
    light, and a pair of two light vertices goes."""
    num, den = _ratio(params.epsilon_q)
    closed, deg = _closed_degrees(g)
    common = closed.astype(int) @ closed.T  # |N_u & N_v|
    sym = deg[:, None] + deg - 2 * common  # |N_u ^ N_v|
    kept = g.plus_table & (sym * den < num * np.maximum(deg[:, None], deg))
    light = (g.plus_table & ~kept).sum(axis=1).astype(object) * den > num * deg
    # path doubling: reach ends as the closure, each row its vertex's component
    reach = kept & ~(light[:, None] & light) | np.eye(g.n, dtype=bool)
    while ((grown := reach @ reach) != reach).any():
        reach = grown
    return tuple(sorted({frozenset(np.flatnonzero(row).tolist()) for row in reach if row.sum() >= 2}, key=min))


def admissible_edges(
    g: SignedGraph, atoms: tuple[frozenset[int], ...], params: AgreementParams
) -> frozenset[Pair]:
    """Admissible pairs: one endpoint outside all atoms, degree-similar, and
    enough common neighbors degree-similar to both; then normalized so atom
    members share identical admissible neighborhoods."""
    num, den = _ratio(params.epsilon_q)
    closed, deg = _closed_degrees(g)
    similar = (num * deg <= den * deg[:, None]) & (num * deg[:, None] <= den * deg)
    linked = (closed & similar).astype(int)  # w in N_u, degree-similar to u
    good = (linked @ linked.T).astype(object)  # such w shared by u and v
    in_atom = np.zeros(g.n, dtype=bool)
    in_atom[[v for a in atoms for v in a]] = True
    adm = similar & ~(in_atom[:, None] & in_atom) & (good * den >= num * np.minimum(deg[:, None], deg))
    np.fill_diagonal(adm, False)
    # normalization: a pair (u, y) with u in atom K survives only if every
    # (u', y), u' in K, is admissible.  No admissible pair has both ends in
    # atoms, so each (atom, outside vertex) group stands or falls whole.
    for a in atoms:
        k = sorted(a)
        adm[k] &= adm[k].all(axis=0)
        adm[:, k] = adm[k].T
    u, v = np.nonzero(np.triu(adm, 1))
    return frozenset(zip(u.tolist(), v.tolist()))


def precluster(g: SignedGraph, params: AgreementParams) -> PreclusteredInstance:
    """Full preclustering: atoms, then normalized admissible pairs."""
    atoms = atomic_preclustering(g, params)
    adm = admissible_edges(g, atoms, params)
    return PreclusteredInstance(g.n, atoms, adm)
