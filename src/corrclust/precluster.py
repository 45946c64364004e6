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
from itertools import combinations

from .core import Pair, PreclusteredInstance, SignedGraph, pair_key


def _frac(x: float) -> Fraction:
    """Decimal-faithful rational for a parameter given as a float."""
    return Fraction(str(x))


def _ratio(x: float) -> tuple[int, int]:
    f = _frac(x)
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


def atomic_preclustering(g: SignedGraph, params: AgreementParams) -> tuple[frozenset[int], ...]:
    """Sparsify the +graph and return its size >= 2 components as atoms."""
    kept: list[Pair] = []
    lost = [0] * g.n
    for (u, v) in sorted(g.plus):
        if in_weak_agreement(g, u, v, 1, params.epsilon_q):
            kept.append((u, v))
        else:
            lost[u] += 1
            lost[v] += 1
    lnum, lden = _ratio(params.epsilon_q)
    light = [lost[v] * lden > lnum * g.degree(v) for v in range(g.n)]
    surviving = [(u, v) for (u, v) in kept if not (light[u] and light[v])]
    # connected components of the sparsified graph
    parent = list(range(g.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (u, v) in surviving:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    comps: dict[int, set[int]] = {}
    for v in range(g.n):
        comps.setdefault(find(v), set()).add(v)
    atoms = [frozenset(c) for c in comps.values() if len(c) >= 2]
    return tuple(sorted(atoms, key=min))


def _degree_similar(du: int, dv: int, num: int, den: int) -> bool:
    return num * dv <= den * du and num * du <= den * dv


def admissible_edges(
    g: SignedGraph, atoms: tuple[frozenset[int], ...], params: AgreementParams
) -> frozenset[Pair]:
    """Admissible pairs: one endpoint outside all atoms, degree-similar, and
    enough common neighbors degree-similar to both; then normalized so atom
    members share identical admissible neighborhoods."""
    num, den = _ratio(params.epsilon_q)
    deg = [g.degree(v) for v in range(g.n)]
    in_atom = [False] * g.n
    for a in atoms:
        for v in a:
            in_atom[v] = True
    adm: set[Pair] = set()
    for (u, v) in combinations(range(g.n), 2):
        if in_atom[u] and in_atom[v]:
            continue
        if not _degree_similar(deg[u], deg[v], num, den):
            continue
        common = g.closed_neighborhood(u) & g.closed_neighborhood(v)
        good = sum(
            1
            for w in common
            if _degree_similar(deg[w], deg[u], num, den) and _degree_similar(deg[w], deg[v], num, den)
        )
        if good * den >= num * min(deg[u], deg[v]):
            adm.add((u, v))
    # normalization: a pair (u, y) with u in atom K survives only if every
    # (u', y), u' in K, is admissible.  No admissible pair has both ends in
    # atoms, so each (atom, outside vertex) group stands or falls whole.
    outside = [y for y in range(g.n) if not in_atom[y]]
    for a in atoms:
        for y in outside:
            group = {pair_key(u, y) for u in a}
            if not group <= adm:
                adm -= group
    return frozenset(adm)


def precluster(g: SignedGraph, params: AgreementParams) -> PreclusteredInstance:
    """Full preclustering: atoms, then normalized admissible pairs."""
    atoms = atomic_preclustering(g, params)
    adm = admissible_edges(g, atoms, params)
    return PreclusteredInstance(g.n, atoms, adm)
