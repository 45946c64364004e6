from fractions import Fraction

import numpy as np
import pytest

from corrclust.core import ADMISSIBLE, SignedGraph, all_pairs, generate_instance
from corrclust.exact import brute_force_opt_good
from corrclust.precluster import (
    AgreementParams,
    admissible_edges,
    atomic_preclustering,
    in_weak_agreement,
    precluster,
)


def test_agreement_params():
    p = AgreementParams(0.1)
    assert p.eps == pytest.approx(0.1**0.5)
    assert p.eps_a == pytest.approx(0.1**6 / 2)
    with pytest.raises(ValueError):
        AgreementParams(0.0)
    with pytest.raises(ValueError):
        AgreementParams(1.0)


def test_weak_agreement():
    k5 = SignedGraph(5, frozenset(all_pairs(5)))
    # identical closed neighborhoods agree at every level
    for i in (1, 2, 5):
        assert in_weak_agreement(k5, 0, 1, i, 0.1)
    assert in_weak_agreement(k5, 2, 2, 1, 0.1)
    # two disjoint +cliques: cross pair has fully disjoint neighborhoods
    two = generate_instance("planted_cliques", 8, {"sizes": [4, 4]}, 0)
    assert not in_weak_agreement(two, 0, 4, 1, 0.1)  # |sym diff| = 8 >= 0.4
    assert not in_weak_agreement(two, 0, 4, 4, 0.1)
    assert in_weak_agreement(two, 0, 4, 21, 0.1)  # 8 < 2.1*... loosened far enough


def test_atomic_preclustering_examples():
    params = AgreementParams(0.1)
    allm = SignedGraph(5, frozenset())
    assert atomic_preclustering(allm, params) == ()
    k5 = SignedGraph(5, frozenset(all_pairs(5)))
    assert atomic_preclustering(k5, params) == (frozenset(range(5)),)
    two = generate_instance("planted_cliques", 8, {"sizes": [4, 4]}, 0)
    atoms = atomic_preclustering(two, params)
    assert atoms == (frozenset({0, 1, 2, 3}), frozenset({4, 5, 6, 7}))


def test_boundary_comparisons_are_strict():
    # lost == lam * d must not make a vertex light (lam = epsilon_q = 0.5):
    # 0 and 1 share the closed neighborhood {0,1,2,3}, so their edge is kept,
    # and each loses its edges to 2 and 3 (which also see 4), so lost = 2 =
    # 0.5 * degree 4.  Both stay heavy and the atom {0,1} survives; a
    # non-strict comparison would mark both light and drop the edge.
    g = SignedGraph(5, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)}))
    atoms = atomic_preclustering(g, AgreementParams(0.5))
    assert atoms == (frozenset({0, 1}),)
    # agreement is strict too: |sym diff| == i*beta*max(d) is not agreement
    two = generate_instance("planted_cliques", 8, {"sizes": [4, 4]}, 0)
    # cross pair: sym diff 8, degrees 4; 8 < 20*0.1*4 is false at equality
    assert not in_weak_agreement(two, 0, 4, 20, 0.1)
    assert in_weak_agreement(two, 0, 4, 21, 0.1)


def test_admissibility_examples():
    params = AgreementParams(0.1)
    # no common neighbors: excluded by the common-neighbor condition
    allm = SignedGraph(4, frozenset())
    assert admissible_edges(allm, (), params) == frozenset()
    # star center vs leaf: degree similarity fails at eps_q = 0.5
    star = SignedGraph(6, frozenset((0, v) for v in range(1, 6)))
    adm = admissible_edges(star, (), AgreementParams(0.5))
    assert all(0 not in p for p in adm)  # center (degree 6) vs leaves (degree 2)
    # +path a-b-c: pair (a,c) has common neighbor b, degree-similar to both
    path = SignedGraph(3, frozenset({(0, 1), (1, 2)}))
    adm2 = admissible_edges(path, (), AgreementParams(0.1))
    assert (0, 2) in adm2


def test_precluster_composition():
    params = AgreementParams(0.1)
    empty = SignedGraph(4, frozenset())
    pre = precluster(empty, params)
    assert pre.proper_atoms == () and pre.adm == frozenset()
    planted = generate_instance("planted_cliques", 8, {"sizes": [4, 4]}, 1)
    pre2 = precluster(planted, params)
    assert tuple(sorted(map(sorted, pre2.proper_atoms))) == ([0, 1, 2, 3], [4, 5, 6, 7])
    assert pre2.adm == frozenset()  # cross pairs have no common +neighbors
    pre2.validate()


def test_planted_atoms_recovered_at_noise_zero():
    for sizes, seed in (([5, 5], 0), ([10, 20, 30], 1), ([4, 4, 4], 2), ([2, 3, 4], 3)):
        g = generate_instance("planted_cliques", sum(sizes), {"sizes": sizes, "noise": 0.0}, seed)
        pre = precluster(g, AgreementParams(0.1))
        got = sorted(sorted(a) for a in pre.proper_atoms)
        want = []
        v = 0
        for s in sizes:
            want.append(list(range(v, v + s)))
            v += s
        assert got == sorted(want)


def _degree_bounds_hold(g, pre, eps_q):
    inv3 = 2.0 / eps_q**3
    inv1 = 2.0 / eps_q
    for v in range(g.n):
        d_prime = pre.d_adm(v) + len(pre.atom_of(v)) - 1
        if d_prime > inv3 * g.degree(v):
            return False
    for (u, v) in all_pairs(g.n):
        if pre.classify_pair(u, v) in ("atomic", "admissible"):
            if g.degree(u) > inv1 * g.degree(v) or g.degree(v) > inv1 * g.degree(u):
                return False
    return True


def test_sparsity_and_degree_similarity_bounds():
    # admissible+atomic degree stays within 2/eps_q^3 of the +degree, and
    # admissible or atomic pairs are degree-similar within 2/eps_q
    rng = np.random.default_rng(0)
    for i in range(30):
        kind = ("uniform_random", "planted_cliques", "adversarial_mix")[i % 3]
        if kind == "uniform_random":
            g = generate_instance(kind, int(rng.integers(4, 40)), None, i)
        else:
            k = int(rng.integers(2, 5))
            sizes = [int(rng.integers(2, 9)) for _ in range(k)]
            n = sum(sizes) + (int(rng.integers(0, 6)) if kind == "adversarial_mix" else 0)
            g = generate_instance(kind, n, {"sizes": sizes, "noise": float(rng.choice([0.0, 0.02]))}, i)
        pre = precluster(g, AgreementParams(0.1))
        pre.validate()
        assert _degree_bounds_hold(g, pre, 0.1)


def test_cost_lower_bound_tiny_eps_regime():
    # opt over good clusterings >= (eps_q^6 / 2) |E_adm|, asserted in the
    # tiny-parameter regime where the bound is proven
    eps_q = 1e-9
    violations_at_point_one = 0
    for seed in range(12):
        n = 6 + seed % 5
        g = generate_instance("uniform_random", n, None, seed)
        pre = precluster(g, AgreementParams(eps_q))
        _, opt_good = brute_force_opt_good(g, pre)
        assert opt_good >= (eps_q**6 / 2) * len(pre.adm)
        # diagnostic only at the desk-scale working point
        pre01 = precluster(g, AgreementParams(0.1))
        _, og01 = brute_force_opt_good(g, pre01)
        if og01 < (0.1**6 / 2) * len(pre01.adm):
            violations_at_point_one += 1
    # recorded, not asserted: the bound is not claimed at eps_q = 0.1


def test_perfect_clustering_implies_no_admissible_pairs_tiny_eps():
    g = generate_instance("planted_cliques", 12, {"sizes": [4, 4, 4], "noise": 0.0}, 5)
    pre = precluster(g, AgreementParams(1e-9))
    assert sorted(len(a) for a in pre.proper_atoms) == [4, 4, 4]
    assert pre.adm == frozenset()


def test_normalization_gives_uniform_atom_neighborhoods():
    for seed in range(10):
        g = generate_instance(
            "adversarial_mix", 14, {"sizes": [4, 4], "noise": 0.0}, seed
        )
        pre = precluster(g, AgreementParams(0.1))
        pre.validate()  # includes the uniform-neighborhood check
        for atom in pre.proper_atoms:
            base = None
            for v in atom:
                nb = set(np.flatnonzero(pre.pair_class[v] == ADMISSIBLE).tolist())
                assert base is None or nb == base
                base = nb


def _per_pair_preclustering(g, eps_q):
    """Reference: the preclustering walked pair by pair in Python integers,
    with plain union-find components."""
    f = Fraction(str(eps_q))
    num, den = f.numerator, f.denominator
    deg = [g.degree(v) for v in range(g.n)]
    kept = [(u, v) for (u, v) in sorted(g.plus) if in_weak_agreement(g, u, v, 1, eps_q)]
    lost = [sum(1 for w in g.plus_neighbors(v) if (min(v, w), max(v, w)) not in kept) for v in range(g.n)]
    light = [lost[v] * den > num * deg[v] for v in range(g.n)]
    parent = list(range(g.n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for (u, v) in kept:
        if not (light[u] and light[v]):
            parent[max(find(u), find(v))] = min(find(u), find(v))
    comps = {}
    for v in range(g.n):
        comps.setdefault(find(v), set()).add(v)
    atoms = tuple(sorted((frozenset(c) for c in comps.values() if len(c) >= 2), key=min))
    in_atom = {v for a in atoms for v in a}

    def similar(a, b):
        return num * deg[b] <= den * deg[a] and num * deg[a] <= den * deg[b]

    adm = {
        (u, v)
        for (u, v) in all_pairs(g.n)
        if not (u in in_atom and v in in_atom) and similar(u, v)
        and sum(1 for w in g.closed_neighborhood(u) & g.closed_neighborhood(v) if similar(w, u) and similar(w, v)) * den
        >= num * min(deg[u], deg[v])
    }
    for a in atoms:
        for y in set(range(g.n)) - in_atom:
            group = {(min(u, y), max(u, y)) for u in a}
            if not group <= adm:
                adm -= group
    return atoms, frozenset(adm)


def test_table_preclustering_matches_a_per_pair_walk():
    # the sign-table preclustering compares in exact integers: 1e-18 and a
    # 17-digit epsilon_q have denominators whose products with the degrees
    # overflow int64 at these sizes
    cases = [("planted_cliques", 12, {"sizes": [4, 4, 4], "noise": 0.02}), ("uniform_random", 10, None),
             ("adversarial_mix", 13, {"sizes": [5, 5], "noise": 0.02}), ("planted_cliques", 96, {"sizes": [40, 32, 24], "noise": 0.05})]
    graphs = [(kind, n, seed, generate_instance(kind, n, params, seed)) for kind, n, params in cases for seed in range(3)]
    # (0, 1) share the +neighbors 2..11, each of which also has a private
    # +neighbor in 12..21: (0, 1) is kept and each end loses 10 pairs, so
    # the lightness product 10 * 10**18 is past int64 at epsilon_q = 1e-18
    plus = {(0, 1)} | {(v, w) for v in (0, 1) for w in range(2, 12)} | {(w, w + 10) for w in range(2, 12)}
    graphs.append(("lost_ten", 22, None, SignedGraph(22, frozenset(plus))))
    for kind, n, seed, g in graphs:
        for eps_q in (0.1, 0.3, 1e-18, 0.12345678901234568):
            atoms, adm = _per_pair_preclustering(g, eps_q)
            pre = precluster(g, AgreementParams(eps_q))
            assert (pre.proper_atoms, pre.adm) == (atoms, adm), (kind, n, seed, eps_q)
