import numpy as np
import pytest

from corrclust.core import (
    Metric,
    PreclusteredInstance,
    SignedGraph,
    all_pairs,
    generate_instance,
    trivial_preclustering,
)
from corrclust.correlated import exact_inclusion_probabilities
from corrclust.lp import build_pivot_lp, lifted_from_result, solve, solve_triangle_lp
from corrclust.precluster import AgreementParams, precluster
from corrclust.round_pivot import (
    _pivot_marginals,
    cleanup,
    cleanup_quantities,
    pivot_based_round,
    pivot_budget,
)
from corrclust.round_set import BudgetLedger, RoundingParams, SeparationFound, decide_cluster


def test_f_plus_shape():
    # +pairs pay f(x) x with f(x) = min(1.515 + x, 2); -pairs pay 2 (1 - x)
    assert pivot_budget(True, 0.0) == 0.0
    assert pivot_budget(True, 0.2) == pytest.approx(1.715 * 0.2)
    assert pivot_budget(True, 1.0) == 2.0
    assert pivot_budget(True, 0.485) == pytest.approx(2.0 * 0.485)
    assert pivot_budget(False, 0.25) == 1.5
    xs = np.linspace(0.01, 1, 100)
    fs = [pivot_budget(True, x) / x for x in xs]
    assert fs[0] == pytest.approx(1.525)
    assert all(f2 >= f1 - 1e-12 for f1, f2 in zip(fs, fs[1:]))


def test_all_minus_singletons_via_cleanup():
    g = SignedGraph(5, frozenset())
    pre = precluster(g, AgreementParams(0.1))
    x = Metric(5, dict.fromkeys(all_pairs(5), 1.0))
    rep = pivot_based_round(g, pre, x, RoundingParams(epsilon=0.05, trials=1), np.random.default_rng(0))
    assert rep.cost == 0
    assert rep.clustering.num_clusters == 5
    assert all("cleanup" in t for t in rep.trace)


def test_all_plus_k4_single_cluster():
    g = SignedGraph(4, frozenset(all_pairs(4)))
    pre = precluster(g, AgreementParams(0.1))
    x = Metric(4, dict.fromkeys(all_pairs(4), 0.0))
    rep = pivot_based_round(g, pre, x, RoundingParams(epsilon=0.05, trials=1), np.random.default_rng(1))
    assert rep.cost == 0
    assert rep.clustering.num_clusters == 1


def test_cleanup_examples():
    eps = 0.05
    # isolated singleton with no +edges is removable
    g = SignedGraph(3, frozenset())
    pre = precluster(g, AgreementParams(0.1))
    x = Metric(3, dict.fromkeys(all_pairs(3), 1.0))
    assert cleanup({0, 1, 2}, g, pre, x, eps) == frozenset({0})
    # all-+ clique atom with zero internal distance and no outside edges
    g2 = SignedGraph(4, frozenset(all_pairs(4)))
    pre2 = precluster(g2, AgreementParams(0.1))
    x2 = Metric(4, dict.fromkeys(all_pairs(4), 0.0))
    assert cleanup({0, 1, 2, 3}, g2, pre2, x2, eps) == frozenset({0, 1, 2, 3})
    # a singleton with one +neighbor at distance 0 and no admissible pairs
    # pays 1 but releases nothing
    g3 = SignedGraph(2, frozenset({(0, 1)}))
    pre3 = PreclusteredInstance(2, (), frozenset())
    x3 = Metric(2, {(0, 1): 0.0})
    alg, delta = cleanup_quantities(frozenset({0}), {0, 1}, g3, pre3, x3, eps)
    assert (alg, delta) == (1.0, 0.0)
    assert cleanup({0, 1}, g3, pre3, x3, eps) is None


def test_cleanup_soundness():
    # whenever cleanup returns K, the deterministic removal cost equals
    # ALG_K and the budget the ledger releases is Delta_K >= ALG_K
    for seed in range(6):
        g = generate_instance("uniform_random", 7, None, seed + 3)
        pre = precluster(g, AgreementParams(0.1))
        x, _ = solve_triangle_lp(g, pre)
        eps = 0.05
        rem = set(range(7))
        k = cleanup(rem, g, pre, x, eps)
        if k is None:
            continue
        alg, delta = cleanup_quantities(k, rem, g, pre, x, eps)
        led = BudgetLedger()
        decide_cluster(g, pre, x, led, rem, set(k), pivot_budget, eps)
        assert led.realized_total == pytest.approx(alg)
        released = led.lp_total + led.err_total
        assert released == pytest.approx(delta, abs=1e-9)
        assert delta >= alg


def test_membership_marginals_exact():
    # correlated part: enumeration equals y_pv; independent part: Bernoulli(y_pv)
    for seed in range(5):
        g = generate_instance("uniform_random", 6, None, seed + 9)
        pre = precluster(g, AgreementParams(0.1))
        x, _ = solve_triangle_lp(g, pre)
        lp = build_pivot_lp(g, pre, x)
        res = solve(lp)
        sol = lifted_from_result(lp, res)
        for p in range(6):
            m, groups, indep = _pivot_marginals(sol, p, pre, set(range(6)), g)
            inc = exact_inclusion_probabilities(m)
            for rep_v, members in groups.items():
                for v in members:
                    assert inc[rep_v] == pytest.approx(sol.y_of((p, v)), abs=1e-7)
            for rep_v, members, y in indep:
                for v in members:
                    assert y == pytest.approx(sol.y_of((p, v)), abs=1e-7)


def test_atoms_never_split_and_pivot_atom_joins():
    g = generate_instance("planted_cliques", 9, {"sizes": [4, 3, 2], "noise": 0.0}, 4)
    pre = precluster(g, AgreementParams(0.1))
    x, _ = solve_triangle_lp(g, pre)
    for seed in range(6):
        rep = pivot_based_round(
            g, pre, x, RoundingParams(epsilon=0.05, trials=1), np.random.default_rng(seed)
        )
        for atom in pre.proper_atoms:
            assert len({rep.clustering.cluster_of(v) for v in atom}) == 1
        for t in rep.trace:
            if "pivot" in t:
                assert t["size"] >= len(pre.atom_of(t["pivot"]))


def test_ledger_totals_match_closed_forms():
    for seed in range(4):
        g = generate_instance("uniform_random", 8, None, seed + 20)
        pre = precluster(g, AgreementParams(0.1))
        x, _ = solve_triangle_lp(g, pre)
        rep = pivot_based_round(
            g, pre, x, RoundingParams(epsilon=0.05, trials=2), np.random.default_rng(seed)
        )
        led = rep.ledger
        ceiling = sum(pivot_budget(p in g.plus, x.x(*p)) for p in all_pairs(8))
        assert led.lp_total == pytest.approx(ceiling, abs=1e-9)
        assert led.err_total == pytest.approx(0.05 * len(pre.adm), abs=1e-9)
        assert led.diff_total == 0.0  # no difference budget in this scheme
        assert led.realized_total == rep.cost


def test_monte_carlo_cost_vs_guarantee_bound():
    g = SignedGraph(3, frozenset({(0, 1), (0, 2)}))
    pre = trivial_preclustering(3)
    x, _ = solve_triangle_lp(g, pre)
    costs = []
    eps_r = 0.0
    for seed in range(800):
        rep = pivot_based_round(
            g, pre, x, RoundingParams(epsilon=0.05, trials=1),
            np.random.default_rng(seed),
        )
        costs.append(rep.cost)
        eps_r = max(eps_r, rep.measured_eps_r)
    bound = sum(pivot_budget(p in g.plus, x.x(*p)) for p in all_pairs(3))
    slack = (0.05 + eps_r) * len(pre.adm)
    assert np.mean(costs) <= bound + slack + 3 * np.std(costs) / np.sqrt(len(costs))


def test_full_run_cost_within_guarantee_bound_random():
    # per-run expected cost, averaged over trials, stays within the total
    # budget ceiling plus the measured-error slack
    for seed in (1, 4):
        g = generate_instance("uniform_random", 8, None, seed)
        pre = precluster(g, AgreementParams(0.1))
        x, _ = solve_triangle_lp(g, pre)
        costs = []
        eps_r = 0.0
        for t in range(60):
            rep = pivot_based_round(
                g, pre, x, RoundingParams(epsilon=0.05, trials=1),
                np.random.default_rng([seed, t]),
            )
            costs.append(rep.cost)
            eps_r = max(eps_r, rep.measured_eps_r)
        ceiling = sum(pivot_budget(p in g.plus, x.x(*p)) for p in all_pairs(8))
        slack = (0.05 + eps_r) * len(pre.adm)
        assert np.mean(costs) <= ceiling + slack + 3 * np.std(costs) / np.sqrt(len(costs))


def test_infeasible_metric_returns_certificate():
    g = SignedGraph(3, frozenset(all_pairs(3)))
    pre = trivial_preclustering(3)
    x = Metric(3, {(0, 1): 0.0, (0, 2): 0.0, (1, 2): 1.0})
    with pytest.raises(SeparationFound) as found:
        pivot_based_round(g, pre, x, RoundingParams(epsilon=0.05, trials=1), np.random.default_rng(0))
    assert found.value.certificate.separates(x)
