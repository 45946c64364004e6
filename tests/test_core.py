import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from corrclust.core import (
    ADMISSIBLE,
    PAIR_CLASSES,
    Clustering,
    Metric,
    PreclusteredInstance,
    SignedGraph,
    all_pairs,
    clustering_cost,
    fractional_cost,
    generate_instance,
    is_good_clustering,
    parse_clustering,
    parse_instance,
    parse_preclustering,
    trivial_preclustering,
    write_clustering,
    write_instance,
    write_preclustering,
)
from corrclust.exact import iter_partitions

TRIANGLE_PPM = SignedGraph(3, frozenset({(0, 1), (0, 2)}))  # bc negative


def complete_plus(n):
    return SignedGraph(n, frozenset(all_pairs(n)))


def test_cost_triangle_examples():
    g = complete_plus(3)
    assert clustering_cost(g, Clustering.from_sets(3, [[0, 1, 2]])) == 0
    assert clustering_cost(g, Clustering.from_sets(3, [[0], [1], [2]])) == 3
    # ++- triangle in one cluster pays the -edge; enumeration confirms 1 is optimal
    one = clustering_cost(TRIANGLE_PPM, Clustering.from_sets(3, [[0, 1, 2]]))
    assert one == 1
    best = min(
        clustering_cost(TRIANGLE_PPM, Clustering.from_assignment(labels))
        for labels in iter_partitions(3)
    )
    assert best == 1


def test_fractional_cost_examples():
    g = complete_plus(4)
    x0 = Metric(4, dict.fromkeys(all_pairs(4), 0.0))
    assert fractional_cost(g, x0) == 0.0
    gm = SignedGraph(4, frozenset())
    x1 = Metric(4, dict.fromkeys(all_pairs(4), 1.0))
    assert fractional_cost(gm, x1) == 0.0
    xz = Metric(3, dict.fromkeys(all_pairs(3), 0.0))
    assert fractional_cost(TRIANGLE_PPM, xz) == 1.0


def test_cost_complement_identity():
    rng = np.random.default_rng(0)
    for seed in range(10):
        n = int(rng.integers(2, 9))
        g = generate_instance("uniform_random", n, None, seed)
        labels = rng.integers(0, 3, size=n)
        c = Clustering.from_assignment(labels.tolist())
        satisfied = sum(
            1
            for p in all_pairs(n)
            if (p in g.plus) == c.together(*p)
        )
        assert clustering_cost(g, c) + satisfied == n * (n - 1) // 2


def test_fractional_matches_integral_on_01_metric():
    for seed in range(8):
        g = generate_instance("uniform_random", 7, None, seed)
        labels = np.random.default_rng(seed).integers(0, 3, size=7)
        c = Clustering.from_assignment(labels.tolist())
        assert fractional_cost(g, Metric.from_clustering(c)) == pytest.approx(
            clustering_cost(g, c)
        )


@given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=12))
def test_clustering_canonical_ids(labels):
    c = Clustering.from_assignment(labels)
    seen = []
    for cid in c.assignment:
        if cid not in seen:
            seen.append(cid)
    assert seen == list(range(c.num_clusters))


def test_classify_pair():
    pre = PreclusteredInstance(
        6, (frozenset({0, 1}), frozenset({2, 3})), frozenset({(0, 4), (1, 4), (4, 5)})
    )
    assert pre.classify_pair(0, 1) == "atomic"
    assert pre.classify_pair(1, 0) == "atomic"
    assert pre.classify_pair(0, 2) == "non_admissible"  # across two atoms
    assert pre.classify_pair(4, 0) == "admissible"
    with pytest.raises(ValueError):
        pre.classify_pair(2, 2)
    # the three classes partition all pairs
    counts = {"atomic": 0, "admissible": 0, "non_admissible": 0}
    for (u, v) in all_pairs(6):
        counts[pre.classify_pair(u, v)] += 1
    assert sum(counts.values()) == 15


def test_is_good_clustering():
    pre_free = trivial_preclustering(4)
    singletons = Clustering.from_sets(4, [[0], [1], [2], [3]])
    assert is_good_clustering(pre_free, singletons)
    pre = PreclusteredInstance(4, (frozenset({0, 1}),), frozenset({(0, 2), (1, 2)}))
    assert not is_good_clustering(pre, Clustering.from_sets(4, [[0, 2], [1], [3]]))  # splits atom
    assert is_good_clustering(pre, Clustering.from_sets(4, [[0, 1, 2], [3]]))
    # joining vertices of two atoms is never good
    pre2 = PreclusteredInstance(4, (frozenset({0, 1}), frozenset({2, 3})), frozenset())
    assert not is_good_clustering(pre2, Clustering.from_sets(4, [[0, 1, 2, 3]]))


def test_good_monotone_merge_cases():
    pre = PreclusteredInstance(4, (), frozenset({(0, 1), (2, 3), (0, 2)}))
    base = Clustering.from_sets(4, [[0], [1], [2], [3]])
    assert is_good_clustering(pre, base)
    # merging along an admissible pair stays good
    assert is_good_clustering(pre, Clustering.from_sets(4, [[0, 1], [2], [3]]))
    # merging that internalizes a non-admissible pair does not
    assert not is_good_clustering(pre, Clustering.from_sets(4, [[0, 3], [1], [2]]))


def test_generators():
    k5 = generate_instance("planted_cliques", 5, {"sizes": [5], "noise": 0.0}, 0)
    assert k5.num_plus == 10
    two = generate_instance("planted_cliques", 6, {"sizes": [3, 3], "noise": 0.0}, 0)
    assert two.is_plus(0, 1) and two.is_plus(3, 4) and not two.is_plus(0, 3)
    assert generate_instance("uniform_random", 6, None, 7) == generate_instance(
        "uniform_random", 6, None, 7
    )
    assert generate_instance("uniform_random", 6, None, 7) != generate_instance(
        "uniform_random", 6, None, 8
    )
    with pytest.raises(ValueError):
        generate_instance("planted_cliques", 6, {"sizes": [3, 4]}, 0)
    with pytest.raises(ValueError):
        generate_instance("uniform_random", 0, None, 0)
    with pytest.raises(ValueError):
        generate_instance("nope", 4, None, 0)
    for params in ({}, {"sizes": 5}):
        with pytest.raises(ValueError, match="'sizes'"):
            generate_instance("planted_cliques", 5, params, 0)
    mix = generate_instance("adversarial_mix", 9, {"sizes": [3, 3], "noise": 0.1}, 4)
    assert mix.n == 9
    # sizes that sum to n leave no free region: the planted graph, drawn alike
    for n, sizes in ((12, [4, 4, 4]), (13, [5, 8]), (16, [8, 8])):
        for seed in range(3):
            params = {"sizes": sizes, "noise": 0.02}
            assert generate_instance("adversarial_mix", n, params, seed) == generate_instance(
                "planted_cliques", n, params, seed
            )


@pytest.mark.parametrize("kind, params", [
    ("uniform_random", {}),
    ("adversarial_mix", {"sizes": [3, 3]}),
])
@pytest.mark.parametrize("p_plus", [2.0, -1.0, float("nan")])
def test_generators_reject_p_plus_outside_unit_interval(kind, params, p_plus):
    with pytest.raises(ValueError, match="p_plus must lie in"):
        generate_instance(kind, 8, {**params, "p_plus": p_plus}, 0)


def test_instance_roundtrip_and_errors():
    k5 = complete_plus(5)
    assert parse_instance(write_instance(k5)) == k5
    g = generate_instance("uniform_random", 7, None, 1)
    for default in "+-":
        assert parse_instance(write_instance(g, default)) == g
    for default in ("", "+-"):
        with pytest.raises(ValueError, match="default sign"):
            write_instance(g, default)
    with pytest.raises(ValueError, match="duplicate"):
        parse_instance("n 3 default -\n0 1 +\n0 1 +\n")
    with pytest.raises(ValueError, match="malformed"):
        parse_instance("n 3 default -\n0 1 ?\n")
    with pytest.raises(ValueError, match="malformed"):
        parse_instance("vertices 3\n")
    with pytest.raises(ValueError, match="order"):
        parse_instance("n 3 default -\n1 0 +\n")
    # default '-' completes the complement with -signs
    g2 = parse_instance("n 4 default -\n0 1 +\n2 3 +\n")
    assert g2.plus == frozenset({(0, 1), (2, 3)})
    # headers without a default must list every pair
    full = "n 3\n0 1 +\n0 2 -\n1 2 +\n"
    assert parse_instance(full).plus == frozenset({(0, 1), (1, 2)})
    with pytest.raises(ValueError, match="missing pair"):
        parse_instance("n 3\n0 1 +\n0 2 -\n")
    # a sign is exactly one of + and -
    with pytest.raises(ValueError, match="malformed"):
        parse_instance("n 3 default +-\n")
    with pytest.raises(ValueError, match="malformed"):
        parse_instance("n 3 default -\n0 1 +-\n")


def test_clustering_and_preclustering_files():
    c = Clustering.from_assignment([0, 1, 0, 2])
    assert parse_clustering(write_clustering(c)) == c
    with pytest.raises(ValueError, match="not total"):
        parse_clustering("1000000000000 0\n")  # rejected without building 0..n-1
    pre = PreclusteredInstance(5, (frozenset({0, 1}),), frozenset({(0, 2), (1, 2)}))
    back = parse_preclustering(write_preclustering(pre), 5)
    assert back.proper_atoms == pre.proper_atoms and back.adm == pre.adm


def test_metric_validation():
    bad_range = Metric(3, {(0, 1): 1.5, (0, 2): 0.0, (1, 2): 0.0})
    with pytest.raises(ValueError, match="outside"):
        bad_range.validate()
    bad_tri = Metric(3, {(0, 1): 1.0, (0, 2): 0.0, (1, 2): 0.0})
    with pytest.raises(ValueError, match="triangle"):
        bad_tri.validate()
    pre = PreclusteredInstance(3, (frozenset({0, 1}),), frozenset({(0, 2), (1, 2)}))
    with pytest.raises(ValueError, match="atomic"):
        Metric(3, {(0, 1): 0.5, (0, 2): 0.5, (1, 2): 0.5}).validate(pre)


def test_preclustered_instance_validation():
    with pytest.raises(ValueError, match="two atoms"):
        PreclusteredInstance(4, (frozenset({0, 1}), frozenset({1, 2})), frozenset())
    with pytest.raises(ValueError, match="both endpoints"):
        PreclusteredInstance(4, (frozenset({0, 1}), frozenset({2, 3})), frozenset({(0, 2)}))
    with pytest.raises(ValueError, match="non-uniform"):
        PreclusteredInstance(4, (frozenset({0, 1}),), frozenset({(0, 2)}))
    # ids outside 0..n-1 are rejected, never aliased by negative indexing
    with pytest.raises(ValueError, match="outside"):
        PreclusteredInstance(5, (frozenset({3, 5}),), frozenset())
    with pytest.raises(ValueError, match="outside"):
        parse_preclustering("atom 0: 0 -1\n", 5)
    with pytest.raises(ValueError, match="outside"):
        parse_preclustering("adm: 0 7\n", 5)
    # an admissible pair is a canonical (u, v) with u < v, never a self pair
    for pair in ((2, 1), (0, 0)):
        with pytest.raises(ValueError, match="canonical"):
            PreclusteredInstance(3, (), frozenset({pair}))
    with pytest.raises(ValueError, match="non-uniform"):
        parse_preclustering("atom 0: 0 1\nadm: 0 2\n", 3)


def test_preclustered_instance_checks_at_construction():
    # a negative id would index the pair-class table from the end (-1 as 2),
    # so classify_pair(1, 2) would say admissible; construction rejects it
    with pytest.raises(ValueError, match="vertex -1 outside 0..2"):
        PreclusteredInstance(3, (), frozenset({(-1, 1)}))


# -- parser fuzzing: a value or a ValueError, and write/parse round-trips ----

_TOKENS = st.sampled_from(
    ["n", "default", "+", "-", "+-", "?", "atom", "atom 0:", "adm:", ":", "#", "0", "1", "2", "3",
     "4", "-1", "7", "01", "1.5", "x", "\t", ""]
)
_TEXT = st.one_of(
    st.text(max_size=80),
    st.lists(st.lists(_TOKENS, max_size=5).map(" ".join), max_size=8).map("\n".join),
)


@given(_TEXT)
def test_parse_instance_fuzz(text):
    try:
        g = parse_instance(text)
    except ValueError:
        return
    assert parse_instance(write_instance(g)) == g


@given(_TEXT, st.one_of(st.none(), st.integers(0, 6)))
def test_parse_clustering_fuzz(text, n):
    try:
        c = parse_clustering(text, n)
    except ValueError:
        return
    assert parse_clustering(write_clustering(c)) == c


@given(_TEXT, st.integers(0, 8))
def test_parse_preclustering_fuzz(text, n):
    try:
        pre = parse_preclustering(text, n)
    except ValueError:
        return
    assert parse_preclustering(write_preclustering(pre), n) == pre


@st.composite
def signed_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = list(all_pairs(n))
    return SignedGraph(n, frozenset(draw(st.sets(st.sampled_from(pairs))) if pairs else ()))


@given(signed_graphs(), st.sampled_from([None, "+", "-"]))
def test_instance_roundtrip_fuzz(g, default):
    assert parse_instance(write_instance(g, default)) == g


@given(st.lists(st.integers(0, 5), max_size=12))
def test_clustering_roundtrip_fuzz(labels):
    c = Clustering.from_assignment(labels)
    assert parse_clustering(write_clustering(c)) == c
    assert parse_clustering(write_clustering(c), len(labels)) == c


@st.composite
def preclusterings(draw):
    """Valid preclusterings: vertices grouped into atoms and singletons;
    admissible pairs join whole groups, never two proper atoms, so atom
    members share their admissible neighborhoods."""
    n = draw(st.integers(1, 9))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups: dict[int, list[int]] = {}
    for v, lab in enumerate(labels):
        groups.setdefault(lab, []).append(v)
    groups = sorted(groups.values())
    index = st.integers(0, len(groups) - 1)
    links = draw(st.sets(st.tuples(index, index)))
    adm = {
        (min(u, v), max(u, v))
        for a, b in links
        if a != b and min(len(groups[a]), len(groups[b])) == 1
        for u in groups[a]
        for v in groups[b]
    }
    atoms = tuple(frozenset(gr) for gr in groups if len(gr) > 1)
    return PreclusteredInstance(n, atoms, frozenset(adm))


@given(preclusterings())
def test_pair_class_table_matches_rule(pre):
    # atomic inside one proper atom; otherwise admissible if the canonical
    # pair is in adm; otherwise non-admissible
    table = pre.pair_class
    assert table.shape == (pre.n, pre.n) and not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = ADMISSIBLE
    for (u, v) in all_pairs(pre.n):
        iu, iv = pre.atom_index[u], pre.atom_index[v]
        if iu != -1 and iu == iv:
            expected = "atomic"
        elif (u, v) in pre.adm:
            expected = "admissible"
        else:
            expected = "non_admissible"
        assert pre.classify_pair(u, v) == pre.classify_pair(v, u) == expected
        assert table[u, v] == table[v, u] == PAIR_CLASSES.index(expected)
    for v in range(pre.n):
        with pytest.raises(ValueError, match="self-pair"):
            pre.classify_pair(v, v)
        assert pre.d_adm(v) == sum(v in p for p in pre.adm)


@given(preclusterings(), st.lists(st.integers(0, 3), min_size=9, max_size=9))
def test_is_good_clustering_matches_pair_rule(pre, labels):
    c = Clustering.from_assignment(labels[:pre.n])
    expected = all(
        c.together(u, v) if pre.classify_pair(u, v) == "atomic"
        else pre.classify_pair(u, v) == "admissible" or not c.together(u, v)
        for (u, v) in all_pairs(pre.n)
    )
    assert is_good_clustering(pre, c) == expected


@given(preclusterings())
def test_preclustering_roundtrip_fuzz(pre):
    pre.validate()
    assert parse_preclustering(write_preclustering(pre), pre.n) == pre
