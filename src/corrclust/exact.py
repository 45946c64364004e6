"""Brute-force optimal clustering oracles for small instances.

One subset dynamic program over atoms, 3^m for m atoms, serves both exact
oracles: `brute_force_opt_good` minimizes over good clusterings (atoms kept
whole, no non-admissible pair joined), and `brute_force_opt` is the same DP
with every vertex its own atom and every pair admissible.  `naive_opt`, a
plain enumeration of set partitions, is kept apart on purpose as the
independent cross-check of that DP.

The DP runs in numpy, one popcount layer at a time.  Each vertex set of k
atoms picks its block among the 2^(k-1) subsets that hold its lowest atom;
those candidates form one dense uint16 table per layer, built on the first
call for each atom count and kept, read-only, for the process.  Each set
keeps the block it chose, and the optimal partition follows those choices.
Over all layers the tables hold (3^m - 1) / 2 entries: 0.5 MB for m = 12 and
43 MB for m = 16.  At n = 16 a fresh process running `brute_force_opt`
peaked near 130 MB RSS (Python 3.11, numpy 2.4; see BENCH_exact_dp.json).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import NON_ADMISSIBLE, Clustering, PreclusteredInstance, SignedGraph, trivial_preclustering

DEFAULT_LIMIT = 16  # largest n the subset-DP oracles accept
NAIVE_LIMIT = 10  # largest n naive_opt enumerates

_INF = float("inf")
_MASK_BITS = 16  # the DP tables store vertex sets as uint16 masks
_CHUNK = 1 << 14  # candidates per numpy step: temporaries stay small and in cache


@lru_cache(maxsize=None)
def _blocks(n: int) -> tuple[np.ndarray, ...]:
    """For k = 1..n, the candidate blocks of the vertex sets of size k: row i
    holds the 2^(k-1) subsets of the i-th such set (ascending) that contain
    its lowest vertex.  A row is ordered by the tie-break: blocks that hold
    the set's lower vertices come first, so the first block is the set
    itself.  uint16 masks, so n <= 16.  Depends only on n; shared by every
    call and read-only."""
    if n > _MASK_BITS:
        raise ValueError(f"subset DP over {n} atoms: masks hold at most {_MASK_BITS}")
    masks = np.arange(1 << n)
    size = np.bitwise_count(masks)
    tables = []
    for k in range(1, n + 1):
        layer = masks[size == k]
        low = layer & -layer
        rest = (layer ^ low).astype(np.uint16)
        bits = []
        for _ in range(k - 1):
            bits.append(rest & -rest)
            rest ^= bits[-1]
        # each further vertex of the set, highest first, doubles the blocks in
        # place: with it, then without it, so blocks with lower vertices lead
        blocks = np.empty((len(layer), 1 << (k - 1)), dtype=np.uint16)
        blocks[:, 0] = low
        for t, bit in enumerate(reversed(bits)):
            blocks[:, 1 << t:2 << t] = blocks[:, :1 << t]
            blocks[:, :1 << t] |= bit[:, None]
        blocks.flags.writeable = False
        tables.append(blocks)
    return tuple(tables)


def _partition_dp(n: int, w: list[int]) -> tuple[list[float], list[int]]:
    """dp[mask] = min total w over partitions of mask; anchor on lowest
    vertex.  Also returns choice[mask], the block of mask that attains it.

    Masks of k vertices depend only on smaller masks, so each popcount layer
    is one vectorized step: dp[mask] = min over its blocks s of
    w[s] + dp[mask ^ s], in row chunks of at most _CHUNK candidates.  The
    first minimum of a row is the block the tie-break prefers."""
    w = np.asarray(w, dtype=float)
    dp = np.empty(1 << n)
    dp[0] = 0.0
    choice = np.zeros(1 << n, dtype=np.intp)
    for blocks in _blocks(n):
        rows = max(1, _CHUNK // blocks.shape[1])
        for a in range(0, len(blocks), rows):
            s = blocks[a:a + rows].astype(np.intp)
            masks = s[:, 0]  # the first block of a set is the set itself
            cost = w.take(s)
            cost += dp.take(s ^ masks[:, None])
            best = (np.arange(len(s)), cost.argmin(axis=1))
            dp[masks] = cost[best]
            choice[masks] = s[best]
    return dp.tolist(), choice.tolist()


def brute_force_opt(g: SignedGraph) -> tuple[Clustering, int]:
    """Minimum-cost clustering: the good-clustering DP with every vertex its
    own atom and every pair admissible.  Exact for n <= DEFAULT_LIMIT."""
    return brute_force_opt_good(g, trivial_preclustering(g.n))


def brute_force_opt_good(g: SignedGraph, pre: PreclusteredInstance) -> tuple[Clustering, int]:
    """Minimum cost over good clusterings: atoms contracted, non-admissible
    co-clustering forbidden. Always feasible (all atoms as singleton clusters)."""
    if g.n > DEFAULT_LIMIT:
        raise ValueError(f"n = {g.n} above oracle limit {DEFAULT_LIMIT}")
    members = [sorted(a) for a in pre.all_atoms]
    m = len(members)
    plus = [0] * g.n
    for (u, v) in g.plus:
        plus[u] |= 1 << v
        plus[v] |= 1 << u
    # conflict[i]: atoms that can never share a cluster with atom i
    atom_of = np.empty(g.n, dtype=np.intp)
    for i, atom in enumerate(members):
        atom_of[atom] = i
    bad = np.zeros((m, m), dtype=bool)
    np.logical_or.at(bad, (atom_of[:, None], atom_of), pre.pair_class == NON_ADMISSIBLE)
    conflict = bad @ (1 << np.arange(m))
    # w[S] = (#minus pairs) - (#plus pairs) inside the union of atom set S,
    # one top atom i at a time: its members join the unions of all S < 2^i
    w = np.zeros(1 << m)
    union = np.zeros(1 << m, dtype=np.int64)
    for i, atom in enumerate(members):
        U, delta = union[:1 << i], np.zeros(1 << i, dtype=np.int64)
        for v in atom:
            delta += np.bitwise_count(U & ~plus[v])
            delta -= np.bitwise_count(U & plus[v])
            U = U | (1 << v)
        union[1 << i:2 << i] = U
        w[1 << i:2 << i] = np.where(np.arange(1 << i) & conflict[i], _INF, w[:1 << i] + delta)
    dp, choice = _partition_dp(m, w)
    labels = [0] * g.n
    mask, cid = (1 << m) - 1, 0
    while mask:
        b = choice[mask]
        for i in range(m):
            if b >> i & 1:
                for v in members[i]:
                    labels[v] = cid
        mask ^= b
        cid += 1
    cost = int(dp[(1 << m) - 1]) + g.num_plus
    return Clustering.from_assignment(labels), cost


def naive_opt(g: SignedGraph) -> int:
    """Optimal cost by exhaustive enumeration of set partitions
    (restricted-growth order, incremental cost, branch-and-bound), for
    n <= NAIVE_LIMIT."""
    if g.n > NAIVE_LIMIT:
        raise ValueError(f"n = {g.n} above naive enumeration limit {NAIVE_LIMIT}")
    n = g.n
    plus = [[u != v and g.is_plus(u, v) for u in range(n)] for v in range(n)]
    best = [_INF]
    labels = [0] * n

    def place(v: int, num_used: int, cost: int) -> None:
        if cost >= best[0]:
            return
        if v == n:
            best[0] = cost
            return
        for c in range(num_used + 1):
            delta = 0
            for u in range(v):
                same = labels[u] == c
                if plus[v][u] != same:
                    delta += 1
            labels[v] = c
            place(v + 1, max(num_used, c + 1), cost + delta)

    place(0, 0, 0)
    return int(best[0])


def iter_partitions(n: int):
    """All set partitions of range(n) as label sequences, restricted-growth order."""
    labels = [0] * n

    def rec(v: int, num_used: int):
        if v == n:
            yield tuple(labels)
            return
        for c in range(num_used + 1):
            labels[v] = c
            yield from rec(v + 1, max(num_used, c + 1))

    yield from rec(0, 0)
