import hashlib

import numpy as np
import pytest

from corrclust.core import (
    Clustering,
    PreclusteredInstance,
    SignedGraph,
    all_pairs,
    clustering_cost,
    generate_instance,
    is_good_clustering,
    pair_key,
    trivial_preclustering,
)
from corrclust import exact
from corrclust.exact import (
    _INF,
    _blocks,
    _partition_dp,
    brute_force_opt,
    brute_force_opt_good,
    iter_partitions,
    naive_opt,
)
from corrclust.precluster import AgreementParams, precluster


def test_examples():
    k5 = SignedGraph(5, frozenset(all_pairs(5)))
    c, cost = brute_force_opt(k5)
    assert cost == 0 and c.num_clusters == 1
    allm = SignedGraph(5, frozenset())
    c, cost = brute_force_opt(allm)
    assert cost == 0 and c.num_clusters == 5
    ppm = SignedGraph(3, frozenset({(0, 1), (0, 2)}))
    assert brute_force_opt(ppm)[1] == 1
    assert naive_opt(ppm) == 1
    assert naive_opt(SignedGraph(4, frozenset(all_pairs(4)))) == 0
    for n, assignment in ((0, ()), (1, (0,))):
        c, cost = brute_force_opt(SignedGraph(n, frozenset()))
        assert (c.assignment, cost) == (assignment, 0)


def test_dp_matches_naive_all_n4_signings():
    pairs = list(all_pairs(4))
    for mask in range(1 << 6):
        plus = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        g = SignedGraph(4, plus)
        assert brute_force_opt(g)[1] == naive_opt(g)


def test_dp_matches_naive_random_n8():
    for seed in range(25):
        g = generate_instance("uniform_random", 8, None, seed)
        assert brute_force_opt(g)[1] == naive_opt(g)


def test_fixed_uniform_instance_cross_checked():
    g = generate_instance("uniform_random", 6, None, 7)
    c, cost = brute_force_opt(g)
    assert cost == naive_opt(g)
    assert clustering_cost(g, c) == cost


def test_dp_cost_matches_returned_clustering():
    for seed in range(10):
        g = generate_instance("uniform_random", 7, None, seed + 100)
        c, cost = brute_force_opt(g)
        assert clustering_cost(g, c) == cost


def test_relabel_invariance():
    rng = np.random.default_rng(3)
    for seed in range(8):
        g = generate_instance("uniform_random", 7, None, seed)
        perm = rng.permutation(7)
        plus = frozenset(pair_key(int(perm[u]), int(perm[v])) for (u, v) in g.plus)
        assert brute_force_opt(g)[1] == brute_force_opt(SignedGraph(7, plus))[1]


def test_good_oracle_unconstrained_matches_plain():
    for seed in range(6):
        g = generate_instance("uniform_random", 6, None, seed)
        pre = trivial_preclustering(6)
        c, cost = brute_force_opt_good(g, pre)
        assert cost == brute_force_opt(g)[1]
        assert is_good_clustering(pre, c)


def test_good_oracle_all_non_admissible():
    g = generate_instance("uniform_random", 6, None, 11)
    pre = PreclusteredInstance(6, (), frozenset())
    c, cost = brute_force_opt_good(g, pre)
    assert c.num_clusters == 6
    assert cost == g.num_plus
    # all-plus triangle with the atom {1, 2}, which sorts after vertex 0: the
    # conflict must also bar a proper atom from joining the atoms below it
    tri = SignedGraph(3, frozenset(all_pairs(3)))
    c, cost = brute_force_opt_good(tri, PreclusteredInstance(3, (frozenset({1, 2}),), frozenset()))
    assert c.assignment == (0, 1, 1) and cost == 2


def test_good_oracle_vs_enumeration():
    # planted 2xK3 with its computed preclustering, checked against a direct
    # enumeration of good partitions
    g = generate_instance("planted_cliques", 6, {"sizes": [3, 3], "noise": 0.0}, 0)
    pre = precluster(g, AgreementParams(0.1))
    assert len(pre.proper_atoms) == 2
    _, cost = brute_force_opt_good(g, pre)
    best = min(
        clustering_cost(g, Clustering.from_assignment(labels))
        for labels in iter_partitions(6)
        if is_good_clustering(pre, Clustering.from_assignment(labels))
    )
    assert cost == best == 0
    # and on noisy random instances
    for seed in range(5):
        gr = generate_instance("uniform_random", 6, None, seed + 40)
        prer = precluster(gr, AgreementParams(0.1))
        _, c2 = brute_force_opt_good(gr, prer)
        best2 = min(
            clustering_cost(gr, Clustering.from_assignment(labels))
            for labels in iter_partitions(6)
            if is_good_clustering(prer, Clustering.from_assignment(labels))
        )
        assert c2 == best2


def test_good_at_least_unconstrained():
    for seed in range(8):
        g = generate_instance("uniform_random", 7, None, seed)
        pre = precluster(g, AgreementParams(0.1))
        assert brute_force_opt(g)[1] <= brute_force_opt_good(g, pre)[1]


def test_limits():
    # the limits are module constants: 16 for the DP oracles, 10 for naive_opt
    g = generate_instance("uniform_random", 17, None, 0)
    with pytest.raises(ValueError, match="limit 16"):
        brute_force_opt(g)
    with pytest.raises(ValueError, match="limit 16"):
        brute_force_opt_good(g, trivial_preclustering(17))
    with pytest.raises(ValueError, match="limit 10"):
        naive_opt(generate_instance("uniform_random", 11, None, 0))


def test_deterministic_tiebreak_prefers_low_vertices_together():
    # a 4-cycle of +edges: two optimal clusterings pair opposite edges;
    # the reported one must put vertex 1 with vertex 0
    g = SignedGraph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))
    c, cost = brute_force_opt(g)
    assert cost == 2
    assert c.together(0, 1)


def _loop_partition_dp(n, w):
    """Reference: the plain-Python subset recurrence, every submask of every
    mask that holds the mask's lowest vertex, and the block each mask
    chooses: of the blocks that attain its minimum, the one that holds the
    lowest vertices (compared from vertex 0 up)."""
    dp, choice = [_INF] * (1 << n), [0] * (1 << n)
    dp[0] = 0
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        sub = rest
        best = None
        while True:
            s = sub | low
            key = (w[s] + dp[mask ^ s], [-(s >> v & 1) for v in range(n)])
            if best is None or key < best:
                best, dp[mask], choice[mask] = key, key[0], s
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return dp, choice


@pytest.mark.parametrize("chunk", [None, 8])
def test_partition_dp_matches_loop_reference_table(monkeypatch, chunk):
    # the optimal partition follows the choices of sub-masks, so every entry
    # of both tables must match, not only the full mask; _INF weights also
    # make some masks unreachable.  A chunk of 8 candidates splits every
    # layer of more than 8 into many row chunks.
    if chunk is not None:
        monkeypatch.setattr(exact, "_CHUNK", chunk)
    for m in range(11):
        for seed in range(4):
            rng = np.random.default_rng(1000 * m + seed)
            w = [int(x) for x in rng.integers(-6, 7, 1 << m)]
            w[0] = 0
            for s in np.flatnonzero(rng.random(1 << m) < 0.3):
                w[s] = _INF
            assert _partition_dp(m, w) == _loop_partition_dp(m, w)


def _loop_weights(g, pre):
    """The per-mask recurrence brute_force_opt_good vectorizes: w[S] is
    (#minus) - (#plus) pairs inside the union of atom set S, or _INF when S
    holds a non-admissible pair."""
    members = [sorted(a) for a in pre.all_atoms]
    m = len(members)
    plus = [sum(1 << u for u in g.plus_neighbors(v)) for v in range(g.n)]
    w, union = [0] * (1 << m), [0] * (1 << m)
    for mask in range(1, 1 << m):
        i = mask.bit_length() - 1
        rest = mask ^ (1 << i)
        conflict = any(pre.classify_pair(u, v) == "non_admissible"
                       for j in range(i) if rest >> j & 1 for u in members[i] for v in members[j])
        if w[rest] == _INF or conflict:
            w[mask] = _INF
            continue
        U, delta = union[rest], 0
        for v in members[i]:
            delta += (U & ~plus[v]).bit_count() - (U & plus[v]).bit_count()
            U |= 1 << v
        union[mask], w[mask] = U, w[rest] + delta
    return w


def test_weights_match_loop_reference(monkeypatch):
    seen = []

    def spy(m, w):
        seen.append(list(w))
        return _partition_dp(m, w)

    monkeypatch.setattr(exact, "_partition_dp", spy)
    for kind, params in (("planted_cliques", {"sizes": [4, 4, 2]}), ("uniform_random", None),
                         ("adversarial_mix", {"sizes": [4, 3], "noise": 0.05})):
        for seed in range(3):
            g = generate_instance(kind, 10, params, seed)
            for pre in (precluster(g, AgreementParams(0.1)), trivial_preclustering(10),
                        PreclusteredInstance(10, (), frozenset())):
                seen.clear()
                brute_force_opt_good(g, pre)
                assert seen == [_loop_weights(g, pre)], (kind, seed, pre)


def test_dp_tables_are_shared_and_read_only():
    assert _blocks(5) is _blocks(5)
    for blocks in _blocks(5):
        with pytest.raises(ValueError, match="read-only"):
            blocks[0, 0] = 0
    with pytest.raises(ValueError, match="at most 16"):
        _partition_dp(17, [])


# SHA-256 of repr of every (assignment, cost) that _oracle_outputs lists,
# recorded before both oracles shared one subset DP
ORACLE_GOLDEN = "4bb4c0ac431eb05c57ae6bf3fccabe3a12f556021b4ba7d51327453631a6d21a"


def _oracle_outputs():
    """Both oracles on planted and adversarial n = 12 and uniform n = 9, each
    with its computed preclustering; the uniform ones also with the trivial
    and the all-non-admissible preclusterings.  Atoms and ties make the
    returned clustering depend on the tie-break, not only the cost."""
    cases = []
    for kind, sizes in (("planted_cliques", [4, 4, 4]), ("adversarial_mix", [5, 5])):
        for seed in range(10_000, 10_006):
            g = generate_instance(kind, 12, {"sizes": sizes, "noise": 0.02}, seed)
            cases.append((g, [precluster(g, AgreementParams(0.1))]))
    for seed in range(6):
        g = generate_instance("uniform_random", 9, None, seed)
        cases.append((g, [precluster(g, AgreementParams(0.1)), trivial_preclustering(9),
                          PreclusteredInstance(9, (), frozenset())]))
    out = []
    for g, pres in cases:
        c, cost = brute_force_opt(g)
        out.append((c.assignment, cost))
        for pre in pres:
            c, cost = brute_force_opt_good(g, pre)
            out.append((c.assignment, cost))
    return out


def test_oracle_outputs_match_golden_digest():
    digest = hashlib.sha256(repr(_oracle_outputs()).encode()).hexdigest()
    assert digest == ORACLE_GOLDEN
