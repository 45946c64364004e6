"""Brute-force optimal clustering oracles for small instances.

Two independent routes are kept on purpose: a 3^n subset dynamic program
(`brute_force_opt`, also in an atom-respecting variant) and a plain
enumeration of set partitions (`naive_opt`) used to cross-check the DP.
"""

from __future__ import annotations

from .core import Clustering, PreclusteredInstance, SignedGraph, all_pairs

DEFAULT_LIMIT = 16
NAIVE_LIMIT = 10

_INF = float("inf")


def _pair_masks(g: SignedGraph) -> tuple[list[int], list[int]]:
    """Bitmask adjacency: plus_mask[v], minus_mask[v] over proper pairs."""
    plus_mask = [0] * g.n
    minus_mask = [0] * g.n
    for (u, v) in all_pairs(g.n):
        if (u, v) in g.plus:
            plus_mask[u] |= 1 << v
            plus_mask[v] |= 1 << u
        else:
            minus_mask[u] |= 1 << v
            minus_mask[v] |= 1 << u
    return plus_mask, minus_mask


def _subset_weights(n: int, plus_mask: list[int], minus_mask: list[int]) -> list[int]:
    """w[S] = (#minus pairs inside S) - (#plus pairs inside S) for all masks."""
    w = [0] * (1 << n)
    for mask in range(1, 1 << n):
        v = mask.bit_length() - 1
        rest = mask ^ (1 << v)
        w[mask] = w[rest] + (minus_mask[v] & rest).bit_count() - (plus_mask[v] & rest).bit_count()
    return w


def _partition_dp(n: int, w: list[int]) -> list[float]:
    """dp[mask] = min total w over partitions of mask; anchor on lowest vertex."""
    size = 1 << n
    dp: list[float] = [_INF] * size
    dp[0] = 0
    for mask in range(1, size):
        low = mask & (-mask)
        rest = mask ^ low
        best = _INF
        sub = rest
        while True:
            s = sub | low
            ws = w[s]
            if ws is not _INF:
                c = ws + dp[mask ^ s]
                if c < best:
                    best = c
            if sub == 0:
                break
            sub = (sub - 1) & rest
        dp[mask] = best
    return dp


def _reconstruct(n: int, dp: list[float], w: list[int]) -> list[int]:
    """Extract blocks, breaking ties toward the lexicographically smallest
    canonical assignment (prefer low vertices in earlier clusters)."""
    blocks = []
    mask = (1 << n) - 1
    while mask:
        low = mask & (-mask)
        rest = mask ^ low
        best_s, best_key = None, -1
        sub = rest
        while True:
            s = sub | low
            if w[s] is not _INF and w[s] + dp[mask ^ s] == dp[mask]:
                # prefer blocks containing the lowest-index vertices
                key = sum(1 << (n - 1 - v) for v in range(n) if s >> v & 1)
                if key > best_key:
                    best_s, best_key = s, key
            if sub == 0:
                break
            sub = (sub - 1) & rest
        if best_s is None:
            raise RuntimeError(f"no block of vertex set {mask:#b} attains its table value {dp[mask]}")
        blocks.append(best_s)
        mask ^= best_s
    return blocks


def _blocks_to_clustering(n: int, blocks: list[int]) -> Clustering:
    labels = [0] * n
    for cid, b in enumerate(blocks):
        for v in range(n):
            if b >> v & 1:
                labels[v] = cid
    return Clustering.from_assignment(labels)


def brute_force_opt(g: SignedGraph, limit_n: int = DEFAULT_LIMIT) -> tuple[Clustering, int]:
    """Minimum-cost clustering by subset DP. Exact for n <= limit_n."""
    if g.n > limit_n:
        raise ValueError(f"n = {g.n} above oracle limit {limit_n}")
    plus_mask, minus_mask = _pair_masks(g)
    w = _subset_weights(g.n, plus_mask, minus_mask)
    dp = _partition_dp(g.n, w)
    blocks = _reconstruct(g.n, dp, w)
    cost = int(dp[(1 << g.n) - 1]) + g.num_plus
    return _blocks_to_clustering(g.n, blocks), cost


def brute_force_opt_good(
    g: SignedGraph, pre: PreclusteredInstance, limit_n: int = DEFAULT_LIMIT
) -> tuple[Clustering, int]:
    """Minimum cost over good clusterings: atoms contracted, non-admissible
    co-clustering forbidden. Always feasible (all atoms as singleton clusters)."""
    if g.n > limit_n:
        raise ValueError(f"n = {g.n} above oracle limit {limit_n}")
    atoms = pre.all_atoms
    m = len(atoms)
    members = [sorted(a) for a in atoms]
    # aggregated pair counts between (and inside, on the diagonal) atoms
    plus_cnt = [[0] * m for _ in range(m)]
    minus_cnt = [[0] * m for _ in range(m)]
    atom_id = [0] * g.n
    for i, a in enumerate(members):
        for v in a:
            atom_id[v] = i
    for (u, v) in all_pairs(g.n):
        i, j = sorted((atom_id[u], atom_id[v]))
        if (u, v) in g.plus:
            plus_cnt[i][j] += 1
        else:
            minus_cnt[i][j] += 1
    # conflict[i]: atoms that can never share a cluster with atom i
    conflict = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            bad = any(
                pre.classify_pair(u, v) == "non_admissible" for u in members[i] for v in members[j]
            )
            if bad:
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i
    w: list[float] = [0] * (1 << m)
    for mask in range(1, 1 << m):
        i = mask.bit_length() - 1
        rest = mask ^ (1 << i)
        if w[rest] is _INF or conflict[i] & rest:
            w[mask] = _INF
            continue
        delta = minus_cnt[i][i] - plus_cnt[i][i]
        for j in range(m):
            if rest >> j & 1:
                a, b = sorted((i, j))
                delta += minus_cnt[a][b] - plus_cnt[a][b]
        w[mask] = w[rest] + delta
    dp = _partition_dp(m, w)
    blocks = _reconstruct(m, dp, w)
    labels = [0] * g.n
    for cid, b in enumerate(blocks):
        for i in range(m):
            if b >> i & 1:
                for v in members[i]:
                    labels[v] = cid
    cost = int(dp[(1 << m) - 1]) + g.num_plus
    return Clustering.from_assignment(labels), cost


def naive_opt(g: SignedGraph, limit_n: int = NAIVE_LIMIT) -> int:
    """Optimal cost by exhaustive enumeration of set partitions
    (restricted-growth order, incremental cost, branch-and-bound)."""
    if g.n > limit_n:
        raise ValueError(f"n = {g.n} above naive enumeration limit {limit_n}")
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
