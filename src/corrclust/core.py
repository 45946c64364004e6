"""Signed-graph instances, clusterings, preclustered instances, and metrics.

Conventions used throughout the package:

* vertices are 0-indexed integers,
* unordered pairs are always keyed as canonical ``(min, max)`` tuples,
* every vertex carries an implicit positive self-loop; self-loops enter
  degree and agreement arithmetic only and never contribute to costs,
* all types are immutable after construction and safe to share.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

Pair = tuple[int, int]

METRIC_TOL = 1e-7  # solver noise a validated metric may carry

# pair classes of a preclustered instance, as codes of its pair-class table
ATOMIC, ADMISSIBLE, NON_ADMISSIBLE = range(3)
PAIR_CLASSES = ("atomic", "admissible", "non_admissible")


def pair_key(u: int, v: int) -> Pair:
    """Canonical unordered-pair key. Rejects u == v."""
    if u == v:
        raise ValueError(f"self-pair ({u}, {u}) has no sign")
    return (u, v) if u < v else (v, u)


def all_pairs(n: int) -> Iterator[Pair]:
    return combinations(range(n), 2)


def clamp_unit(v: np.ndarray, capped=True) -> np.ndarray:
    """``v`` floored at 0 and, where ``capped``, capped at 1; NaN and -0.0
    read as 0.0.  np.where, not np.maximum or np.clip: those return -0.0
    for a -0.0 input."""
    floored = np.where(v > 0.0, v, 0.0)
    return np.where(capped & (floored >= 1.0), 1.0, floored)


# ---------------------------------------------------------------------------
# Signed graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedGraph:
    """Complete signed graph on ``n`` vertices.

    Only the positive pairs are stored; every other pair is negative, so each
    unordered pair has exactly one sign by construction.
    """

    n: int
    plus: frozenset[Pair]

    def __post_init__(self) -> None:
        for (u, v) in self.plus:
            if not (0 <= u < v < self.n):
                raise ValueError(f"pair ({u}, {v}) out of range or not canonical")

    def is_plus(self, u: int, v: int) -> bool:
        return pair_key(u, v) in self.plus

    def sign(self, u: int, v: int) -> str:
        return "+" if self.is_plus(u, v) else "-"

    @cached_property
    def _plus_adj(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for (u, v) in self.plus:
            adj[u].add(v)
            adj[v].add(u)
        return tuple(frozenset(a) for a in adj)

    def plus_neighbors(self, v: int) -> frozenset[int]:
        """Proper +neighbors of ``v`` (self excluded)."""
        return self._plus_adj[v]

    def closed_neighborhood(self, v: int) -> frozenset[int]:
        """N_v including the self-loop."""
        return self._plus_adj[v] | {v}

    def degree(self, v: int) -> int:
        """Self-loop-inclusive +degree, |N_v|."""
        return len(self._plus_adj[v]) + 1

    @property
    def num_plus(self) -> int:
        return len(self.plus)

    @property
    def num_minus(self) -> int:
        return self.n * (self.n - 1) // 2 - len(self.plus)


# ---------------------------------------------------------------------------
# Clusterings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Clustering:
    """Total assignment of vertices to clusters.

    The assignment is canonical: cluster ids appear in order of first use,
    so ids of nonempty clusters form the contiguous range 0..k-1.
    """

    assignment: tuple[int, ...]

    @staticmethod
    def from_assignment(labels: Sequence[int]) -> "Clustering":
        remap: dict[int, int] = {}
        canon = []
        for lab in labels:
            if lab not in remap:
                remap[lab] = len(remap)
            canon.append(remap[lab])
        return Clustering(tuple(canon))

    @staticmethod
    def from_sets(n: int, sets: Iterable[Iterable[int]]) -> "Clustering":
        labels = [-1] * n
        for cid, members in enumerate(sets):
            for v in members:
                if labels[v] != -1:
                    raise ValueError(f"vertex {v} assigned twice")
                labels[v] = cid
        if any(l == -1 for l in labels):
            raise ValueError("clustering is not total")
        return Clustering.from_assignment(labels)

    @property
    def n(self) -> int:
        return len(self.assignment)

    @property
    def num_clusters(self) -> int:
        return max(self.assignment) + 1 if self.assignment else 0

    def cluster_of(self, v: int) -> int:
        return self.assignment[v]

    def together(self, u: int, v: int) -> bool:
        return self.assignment[u] == self.assignment[v]

    def clusters(self) -> list[set[int]]:
        out: list[set[int]] = [set() for _ in range(self.num_clusters)]
        for v, cid in enumerate(self.assignment):
            out[cid].add(v)
        return out


def clustering_cost(g: SignedGraph, c: Clustering) -> int:
    """Number of unsatisfied pairs: -pairs inside a cluster plus +pairs across."""
    if c.n != g.n:
        raise ValueError("clustering is not total over the graph's vertices")
    cost = 0
    a = c.assignment
    for (u, v) in all_pairs(g.n):
        together = a[u] == a[v]
        if ((u, v) in g.plus) != together:
            cost += 1
    return cost


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    """Fractional distances x in [0,1] over all pairs of an n-vertex set."""

    n: int
    values: Mapping[Pair, float]

    def x(self, u: int, v: int) -> float:
        return self.values[pair_key(u, v)]

    @staticmethod
    def from_clustering(c: Clustering) -> "Metric":
        vals = {p: 0.0 if c.together(*p) else 1.0 for p in all_pairs(c.n)}
        return Metric(c.n, vals)

    def validate(self, pre: "PreclusteredInstance | None" = None) -> None:
        """Raise ValueError on range, triangle-inequality, or pinning violations."""
        tol = METRIC_TOL
        for p in all_pairs(self.n):
            xv = self.values.get(p)
            if xv is None:
                raise ValueError(f"missing value for pair {p}")
            if not (-tol <= xv <= 1 + tol):
                raise ValueError(f"x{p} = {xv} outside [0,1]")
        for (u, v, w) in combinations(range(self.n), 3):
            xuv, xuw, xvw = self.x(u, v), self.x(u, w), self.x(v, w)
            if xuv > xuw + xvw + tol or xuw > xuv + xvw + tol or xvw > xuv + xuw + tol:
                raise ValueError(f"triangle inequality fails on ({u},{v},{w})")
        if pre is not None:
            for p in all_pairs(self.n):
                cls = pre.pair_class[p]
                if cls == ATOMIC and abs(self.values[p]) > tol:
                    raise ValueError(f"atomic pair {p} has x = {self.values[p]} != 0")
                if cls == NON_ADMISSIBLE and abs(self.values[p] - 1.0) > tol:
                    raise ValueError(f"non-admissible pair {p} has x = {self.values[p]} != 1")


def fractional_cost(g: SignedGraph, x: Metric) -> float:
    """LP objective: sum of x over +pairs plus (1 - x) over -pairs."""
    if x.n != g.n:
        raise ValueError("metric and graph vertex sets differ")
    total = 0.0
    for p in all_pairs(g.n):
        xv = x.values[p]
        total += xv if p in g.plus else 1.0 - xv
    return total


# ---------------------------------------------------------------------------
# Preclustered instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreclusteredInstance:
    """Atoms plus admissible pairs; partitions all pairs into three classes.

    ``proper_atoms`` are the size >= 2 components found by the preclustering;
    vertices outside them are treated as singleton pseudo-atoms wherever a
    full atom list is needed (``all_atoms``).  Construction checks the
    invariants (:meth:`validate`), so no table is built from a bad instance.
    """

    n: int
    proper_atoms: tuple[frozenset[int], ...]
    adm: frozenset[Pair]

    def __post_init__(self) -> None:
        self.validate()

    @cached_property
    def atom_index(self) -> tuple[int, ...]:
        """Index of the proper atom containing each vertex, -1 if none."""
        idx = [-1] * self.n
        for i, atom in enumerate(self.proper_atoms):
            for v in atom:
                if idx[v] != -1:
                    raise ValueError(f"vertex {v} in two atoms")
                idx[v] = i
        return tuple(idx)

    @cached_property
    def all_atoms(self) -> tuple[frozenset[int], ...]:
        """Proper atoms plus singleton pseudo-atoms, sorted by minimum vertex."""
        atoms = list(self.proper_atoms)
        covered = {v for a in atoms for v in a}
        atoms.extend(frozenset([v]) for v in range(self.n) if v not in covered)
        return tuple(sorted(atoms, key=min))

    def atom_of(self, v: int) -> frozenset[int]:
        """The atom containing v, treating non-atom vertices as singletons."""
        i = self.atom_index[v]
        return self.proper_atoms[i] if i >= 0 else frozenset([v])

    @cached_property
    def pair_class(self) -> np.ndarray:
        """Read-only n x n table of pair-class codes, which every stage reads:
        ATOMIC inside one proper atom and on the diagonal, else ADMISSIBLE if
        the pair is in ``adm``, else NON_ADMISSIBLE."""
        table = np.full((self.n, self.n), NON_ADMISSIBLE, dtype=np.int8)
        u, v = np.array(sorted(self.adm), dtype=int).reshape(-1, 2).T
        table[u, v] = table[v, u] = ADMISSIBLE
        atom = np.asarray(self.atom_index)
        table[(atom[:, None] == atom[None, :]) & (atom[:, None] >= 0)] = ATOMIC
        np.fill_diagonal(table, ATOMIC)
        table.flags.writeable = False
        return table

    def classify_pair(self, u: int, v: int) -> str:
        """'atomic', 'admissible' or 'non_admissible'; rejects u == v."""
        return PAIR_CLASSES[self.pair_class[pair_key(u, v)]]

    @cached_property
    def _adm_degree(self) -> tuple[int, ...]:
        return tuple((self.pair_class == ADMISSIBLE).sum(axis=1).tolist())

    def d_adm(self, v: int) -> int:
        """Number of admissible pairs at ``v``: ADMISSIBLE codes in its row."""
        return self._adm_degree[v]

    def validate(self) -> None:
        """Check the structural invariants of a preclustered instance."""
        for v in chain(*self.proper_atoms, *self.adm):
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        self.atom_index  # raises on overlapping atoms
        for atom in self.proper_atoms:
            if len(atom) < 2:
                raise ValueError("proper atom of size < 2")
        for (u, v) in self.adm:
            if not u < v:
                raise ValueError(f"admissible pair ({u},{v}) is not a canonical (u, v) with u < v")
            if self.atom_index[u] != -1 and self.atom_index[v] != -1:
                raise ValueError(f"admissible pair ({u},{v}) with both endpoints in atoms")
        # members of one atom must have identical admissible neighborhoods
        for atom in self.proper_atoms:
            rows = self.pair_class[sorted(atom)]
            if (rows != rows[0]).any():
                raise ValueError(f"atom {sorted(atom)} has non-uniform admissible neighborhoods")


def is_good_clustering(pre: PreclusteredInstance, c: Clustering) -> bool:
    """True iff all atomic pairs are together and no non-admissible pair is."""
    a = np.asarray(c.assignment)
    together = a[:, None] == a[None, :]
    cls = pre.pair_class
    return not ((cls == ATOMIC) & ~together | (cls == NON_ADMISSIBLE) & together).any()


def trivial_preclustering(n: int) -> PreclusteredInstance:
    """No atoms, every pair admissible. Useful as an unconstrained default."""
    return PreclusteredInstance(n, (), frozenset(all_pairs(n)))


# ---------------------------------------------------------------------------
# Instance generators
# ---------------------------------------------------------------------------

def generate_instance(kind: str, n: int, params: Mapping | None, seed: int) -> SignedGraph:
    """Deterministic instance generator.

    kinds and params:
      uniform_random   {"p_plus": float = 0.5}
      planted_cliques  {"sizes": [int], "noise": float = 0.0}; sizes must sum to n
      adversarial_mix  {"sizes": [int], "noise": float = 0.0, "p_plus": float = 0.5};
                       sizes sum at most n, leftover vertices get uniform signs

    An ``adversarial_mix`` whose sizes sum to n leaves no free region: it
    draws the same random numbers as ``planted_cliques`` and returns the same
    graph at the same seed, so it is noisy planted cliques, not a mix.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    params = dict(params or {})
    rng = np.random.default_rng(seed)
    if kind == "uniform_random":
        p_plus = _probability(params.pop("p_plus", 0.5), "p_plus")
        _reject_extra(params)
        plus = {p for p in all_pairs(n) if rng.random() < p_plus}
        return SignedGraph(n, frozenset(plus))
    if kind in ("planted_cliques", "adversarial_mix"):
        try:
            sizes = [operator.index(s) for s in params.pop("sizes")]
        except (KeyError, TypeError):
            raise ValueError(f"{kind} needs 'sizes', a list of integer clique sizes") from None
        noise = _probability(params.pop("noise", 0.0), "noise")
        p_plus = _probability(params.pop("p_plus", 0.5), "p_plus") if kind == "adversarial_mix" else None
        _reject_extra(params)
        if any(s < 1 for s in sizes):
            raise ValueError("clique sizes must be positive")
        total = sum(sizes)
        if kind == "planted_cliques" and total != n:
            raise ValueError(f"clique sizes sum to {total}, expected n = {n}")
        if total > n:
            raise ValueError(f"clique sizes sum to {total} > n = {n}")
        block = [-1] * n
        v = 0
        for b, s in enumerate(sizes):
            for _ in range(s):
                block[v] = b
                v += 1
        plus = set()
        for (u, w) in all_pairs(n):
            if block[u] == -1 or block[w] == -1:
                # free region of the adversarial mix: uniform sign
                base = rng.random() < p_plus
            else:
                base = block[u] == block[w]
                if rng.random() < noise:
                    base = not base
            if base:
                plus.add((u, w))
        return SignedGraph(n, frozenset(plus))
    raise ValueError(f"unknown generator kind {kind!r}")


def _probability(value, name: str) -> float:
    p = float(value)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must lie in [0,1]")
    return p


def _reject_extra(params: Mapping) -> None:
    if params:
        raise ValueError(f"unknown generator params: {sorted(params)}")


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------


def write_instance(g: SignedGraph, default: str | None = None) -> str:
    """Instance text form: header `n <count> default <+|->`, then overrides."""
    if default is None:
        default = "+" if g.num_plus > g.num_minus else "-"
    if default not in ("+", "-"):
        raise ValueError("default sign must be '+' or '-'")
    lines = [f"n {g.n} default {default}"]
    for (u, v) in sorted(all_pairs(g.n)):
        s = g.sign(u, v)
        if s != default:
            lines.append(f"{u} {v} {s}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> SignedGraph:
    """Parse the instance format; inverse of write_instance.

    The header may omit `default <sign>`, in which case every pair must be
    listed explicitly and a missing pair is an error.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty instance file")
    head = lines[0].split()
    if len(head) == 4 and head[0] == "n" and head[2] == "default" and head[3] in ("+", "-"):
        default: str | None = head[3]
    elif len(head) == 2 and head[0] == "n":
        default = None
    else:
        raise ValueError(f"malformed header: {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError as exc:
        raise ValueError(f"malformed vertex count in header: {head[1]!r}") from exc
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    seen: dict[Pair, str] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[2] not in ("+", "-"):
            raise ValueError(f"malformed line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"malformed line: {ln!r}") from exc
        if not (0 <= u < v < n):
            raise ValueError(f"pair ({u}, {v}) out of range or not in u < v order")
        if (u, v) in seen:
            raise ValueError(f"duplicate pair ({u}, {v})")
        seen[(u, v)] = parts[2]
    if default is None:
        missing = [p for p in all_pairs(n) if p not in seen]
        if missing:
            raise ValueError(f"missing pair {missing[0]} and no default sign")
        plus = {p for p, s in seen.items() if s == "+"}
    else:
        plus = {p for p in all_pairs(n) if seen.get(p, default) == "+"}
    return SignedGraph(n, frozenset(plus))


def write_clustering(c: Clustering) -> str:
    return "\n".join(f"{v} {cid}" for v, cid in enumerate(c.assignment)) + "\n"


def parse_clustering(text: str, n: int | None = None) -> Clustering:
    labels: dict[int, int] = {}
    for ln in (raw.strip() for raw in text.splitlines()):
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed clustering line: {ln!r}")
        v, cid = int(parts[0]), int(parts[1])
        if v in labels:
            raise ValueError(f"vertex {v} assigned twice")
        labels[v] = cid
    if n is None:
        n = max(labels) + 1 if labels else 0
    if len(labels) != n or not all(0 <= v < n for v in labels):
        raise ValueError("clustering is not total over 0..n-1")
    return Clustering.from_assignment([labels[v] for v in range(n)])


def write_preclustering(pre: PreclusteredInstance) -> str:
    lines = []
    for i, atom in enumerate(pre.proper_atoms):
        lines.append(f"atom {i}: " + " ".join(str(v) for v in sorted(atom)))
    for (u, v) in sorted(pre.adm):
        lines.append(f"adm: {u} {v}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_preclustering(text: str, n: int) -> PreclusteredInstance:
    atoms: list[frozenset[int]] = []
    adm: set[Pair] = set()
    for ln in (raw.strip() for raw in text.splitlines()):
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith("atom"):
            _, members = ln.split(":", 1)
            atoms.append(frozenset(int(t) for t in members.split()))
        elif ln.startswith("adm:"):
            u, v = (int(t) for t in ln[4:].split())
            adm.add(pair_key(u, v))
        else:
            raise ValueError(f"malformed preclustering line: {ln!r}")
    return PreclusteredInstance(n, tuple(atoms), frozenset(adm))
