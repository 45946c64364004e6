import os
import subprocess
import sys
import textwrap
from functools import reduce
from itertools import combinations
from operator import add
from pathlib import Path

import numpy as np
import pytest

from corrclust.core import (
    ADMISSIBLE,
    Metric,
    SignedGraph,
    all_pairs,
    generate_instance,
    trivial_preclustering,
)
from corrclust.lp import build_set_lp, lifted_from_result, solve, solve_triangle_lp
from corrclust.precluster import AgreementParams, precluster
from corrclust.round_set import (
    BudgetLedger,
    RoundingParams,
    SeparationFound,
    analyze_cluster_sampler,
    budget_tables,
    decide_cluster,
    lp_budget,
    set_based_cstr_clst,
    set_based_round,
)


def solved_lift(g, pre, x, epsilon=0.05):
    """Lifted solution for x, or None when x is legitimately cut (the
    LP-derived metric can fall outside the good-clustering hull at small n)."""
    lp = build_set_lp(range(g.n), pre, x, epsilon=epsilon)
    res = solve(lp)
    if res.status != "optimal":
        return None
    return lifted_from_result(lp, res)


def test_params_validation():
    with pytest.raises(ValueError):
        RoundingParams(epsilon=0.0, trials=1)
    with pytest.raises(ValueError):
        RoundingParams(epsilon=0.05, trials=0)


def test_integral_metric_reproduces_clustering():
    g = generate_instance("planted_cliques", 8, {"sizes": [4, 4]}, 0)
    pre = precluster(g, AgreementParams(0.1))
    x, _ = solve_triangle_lp(g, pre)
    rep = set_based_round(g, pre, x, RoundingParams(epsilon=0.05, trials=1), np.random.default_rng(0))
    assert rep.cost == 0
    assert rep.clustering.together(0, 1) and not rep.clustering.together(0, 4)


def test_all_minus_gives_singletons():
    g = SignedGraph(6, frozenset())
    pre = precluster(g, AgreementParams(0.1))
    x = Metric.from_pairs(6, dict.fromkeys(all_pairs(6), 1.0))
    rep = set_based_round(g, pre, x, RoundingParams(epsilon=0.05, trials=1), np.random.default_rng(1))
    assert rep.cost == 0
    assert rep.clustering.num_clusters == 6


def _pairs_mask(n, pairs):
    mask = np.zeros((n, n), dtype=bool)
    mask[tuple(np.array(pairs, dtype=int).reshape(-1, 2).T)] = True
    return mask


def test_ledger_at_most_once():
    table = np.full((4, 4), 0.5)
    led = BudgetLedger(4)
    led.release_pairs(_pairs_mask(4, [(0, 1)]), table, table)
    with pytest.raises(RuntimeError, match="pair 0, 1 released twice"):
        led.release_pairs(_pairs_mask(4, [(1, 2), (0, 1)]), table, table)
    led.release_vertices([3], np.array([0.2]))
    with pytest.raises(RuntimeError, match="vertex 3 released twice"):
        led.release_vertices([2, 3], np.array([0.2, 0.2]))
    with pytest.raises(RuntimeError, match="repeat"):
        led.release_vertices([1, 1], np.array([0.2, 0.2]))
    led.charge(_pairs_mask(4, [(0, 1)]))
    with pytest.raises(RuntimeError, match="charged twice"):
        led.charge(_pairs_mask(4, [(0, 1)]))


def test_ledger_totals_are_ordered_running_sums():
    # each total adds its amounts left to right in release order, across
    # calls: with 1e16 first, the 1.0 is absorbed, which a compensated or
    # pairwise sum would keep
    pairs = [((0, 1), 1e16, 0.05), ((0, 2), 1.0, 0.0), ((1, 2), -1e16, 0.05), ((2, 3), 0.25, 0.05)]
    vertices = [(0, 1e16), (1, 1.0), (2, -1e16)]
    lp_table, err_table = np.zeros((4, 4)), np.zeros((4, 4))
    for (v, w), lp_amount, err_amount in pairs:
        lp_table[v, w], err_table[v, w] = lp_amount, err_amount
    led = BudgetLedger(4)
    for part in (pairs[:2], pairs[2:]):
        led.release_pairs(_pairs_mask(4, [p for p, _, _ in part]), lp_table, err_table)
    led.release_vertices([v for v, _ in vertices], np.array([a for _, a in vertices]))
    led.charge(_pairs_mask(4, [(0, 1), (2, 3)]))
    assert led.lp_total == reduce(add, [a for _, a, _ in pairs], 0.0) == 0.25
    assert led.err_total == reduce(add, [e for _, _, e in pairs], 0.0)
    assert led.diff_total == reduce(add, [a for _, a in vertices], 0.0) == 0.0
    assert led.realized_total == 2
    assert led.totals() == {
        "lp_budget": 0.25, "error_budget": led.err_total, "difference_budget": 0.0, "realized_cost": 2.0
    }


class _CallLog(BudgetLedger):
    """A ledger that also logs the pairs and amounts of every release and
    charge, in the order the ledger adds them."""

    def __init__(self, n):
        super().__init__(n)
        self.calls = []

    def release_pairs(self, mask, lp_table, err_table):
        pairs = [tuple(p) for p in np.argwhere(mask).tolist()]
        self.calls.append(("release", pairs, lp_table[mask].tolist(), err_table[mask].tolist()))
        super().release_pairs(mask, lp_table, err_table)

    def charge(self, mask):
        self.calls.append(("charge", [tuple(p) for p in np.argwhere(mask).tolist()]))
        super().charge(mask)


def test_decide_cluster_walks_the_pairs_of_a_full_scan():
    # decide_cluster must release and charge exactly the pairs a scan of
    # every remaining pair would, with the same amounts, in the same order
    rng = np.random.default_rng(7)
    for seed in range(8):
        n = int(rng.integers(4, 10))
        g = generate_instance("uniform_random", n, None, seed)
        pre = precluster(g, AgreementParams(0.1))
        x, _ = solve_triangle_lp(g, pre)
        tables = budget_tables(g, pre, x, lp_budget, 0.05)
        for _ in range(4):
            rem = {v for v in range(n) if rng.random() < 0.8} or {0}
            cluster = {v for v in rem if rng.random() < 0.4} or {min(rem)}
            pairs, lp_amounts, err_amounts, charged = [], [], [], []
            for v, w in combinations(sorted(rem), 2):
                in_v, in_w = v in cluster, w in cluster
                if not (in_v or in_w):
                    continue
                is_plus = (v, w) in g.plus
                pairs.append((v, w))
                lp_amounts.append(float(lp_budget(is_plus, x.x(v, w))))
                err_amounts.append(0.05 if pre.pair_class[v, w] == ADMISSIBLE else 0.0)
                if (is_plus and in_v != in_w) or (not is_plus and in_v and in_w):
                    charged.append((v, w))
            log = _CallLog(n)
            decide_cluster(tables, log, rem, cluster)
            expected = [("release", pairs, lp_amounts, err_amounts), ("charge", charged)]
            assert log.calls == expected, (seed, sorted(rem), sorted(cluster))
            assert log.lp_total == reduce(add, lp_amounts, 0.0)
            assert log.err_total == reduce(add, err_amounts, 0.0)


def test_ledger_totals_match_closed_forms():
    for seed in range(4):
        g = generate_instance("uniform_random", 8, None, seed)
        pre = precluster(g, AgreementParams(0.1))
        x, _ = solve_triangle_lp(g, pre)
        eps = 0.05
        rep = set_based_round(
            g, pre, x, RoundingParams(epsilon=eps, trials=2), np.random.default_rng(seed)
        )
        led = rep.ledger
        lp_ceiling = sum(lp_budget(p in g.plus, x.x(*p)) for p in all_pairs(8))
        assert led.lp_total == pytest.approx(lp_ceiling, abs=1e-9)
        assert led.err_total == pytest.approx(eps * len(pre.adm), abs=1e-9)
        diff_ceiling = 2 * eps * sum(pre.d_adm(v) for v in range(8))
        assert led.diff_total == pytest.approx(diff_ceiling, abs=1e-9)
        assert led.realized_total == rep.cost


def test_clustering_probability_identity():
    # exact branch summation: Pr[v clustered] = 1 / y_empty, per call
    for seed in range(8):
        n = 4 + seed % 3
        g = generate_instance("uniform_random", n, None, seed)
        pre = precluster(g, AgreementParams(0.1))
        x, _ = solve_triangle_lp(g, pre)
        sol = solved_lift(g, pre, x)
        if sol is None:
            continue
        ana = analyze_cluster_sampler(range(n), sol, pre, g, x, 0.05)
        for v in range(n):
            assert ana.p_clustered[v] == pytest.approx(1.0 / sol.y0, abs=1e-9)


def test_clustering_probability_identity_mid_loop():
    # the identity is per call, so it must also hold after removing a cluster
    g = generate_instance("uniform_random", 7, None, 13)
    pre = precluster(g, AgreementParams(0.1))
    x, _ = solve_triangle_lp(g, pre)
    sol = solved_lift(g, pre, x)
    assert sol is not None
    rng = np.random.default_rng(13)
    cluster, _, _ = set_based_cstr_clst(range(7), sol, pre, rng)
    rest = sorted(set(range(7)) - cluster)
    if len(rest) >= 2:
        lp2 = build_set_lp(rest, pre, x, epsilon=0.05)
        res2 = solve(lp2)
        if res2.status == "optimal":
            sol2 = lifted_from_result(lp2, res2)
            ana = analyze_cluster_sampler(rest, sol2, pre, g, x, 0.05)
            for v in rest:
                assert ana.p_clustered[v] == pytest.approx(1.0 / sol2.y0, abs=1e-9)


def test_decided_probability_lower_bound():
    # Pr[vw decided] >= (2 - y_vw) / y_empty - err_vw, exactly computed
    for seed in range(5):
        g = generate_instance("uniform_random", 6, None, seed + 50)
        pre = precluster(g, AgreementParams(0.1))
        x, _ = solve_triangle_lp(g, pre)
        sol = solved_lift(g, pre, x)
        if sol is None:
            continue
        ana = analyze_cluster_sampler(range(6), sol, pre, g, x, 0.05)
        for p in ana.p_decided:
            bound = (2 - sol.y_of(p)) / sol.y0 - ana.pair_err[p]
            assert ana.p_decided[p] >= bound - 1e-9


def test_per_iteration_cost_within_budget():
    # expected realized cost <= expected released budget whenever the
    # measured correlation error is below the per-pair error budget
    for seed in range(8):
        n = 5 + seed % 2
        g = generate_instance("uniform_random", n, None, seed + 7)
        pre = precluster(g, AgreementParams(0.1))
        x, _ = solve_triangle_lp(g, pre)
        sol = solved_lift(g, pre, x)
        if sol is None:
            continue
        ana = analyze_cluster_sampler(range(n), sol, pre, g, x, 0.05)
        frac_pairs = [p for p, e in ana.pair_err.items() if e > 0]
        eps_r = max(ana.pair_err.values()) if frac_pairs else 0.0
        if eps_r <= 0.05:
            assert ana.expected_cost <= ana.expected_budget + 1e-9


def test_sampled_distribution_matches_analysis():
    g = generate_instance("uniform_random", 5, None, 12)
    pre = precluster(g, AgreementParams(0.1))
    x, _ = solve_triangle_lp(g, pre)
    sol = solved_lift(g, pre, x)
    ana = analyze_cluster_sampler(range(5), sol, pre, g, x, 0.05)
    rng = np.random.default_rng(9)
    n_draws = 20000
    hits = dict.fromkeys(range(5), 0)
    for _ in range(n_draws):
        c, _, _ = set_based_cstr_clst(range(5), sol, pre, rng)
        for v in c:
            hits[v] += 1
    for v in range(5):
        se = 3 * np.sqrt(ana.p_clustered[v] * (1 - ana.p_clustered[v]) / n_draws) + 1e-9
        assert abs(hits[v] / n_draws - ana.p_clustered[v]) < se


def test_atoms_never_split():
    g = generate_instance("planted_cliques", 10, {"sizes": [4, 4, 2], "noise": 0.0}, 2)
    pre = precluster(g, AgreementParams(0.1))
    x, _ = solve_triangle_lp(g, pre)
    for seed in range(5):
        rep = set_based_round(
            g, pre, x, RoundingParams(epsilon=0.05, trials=1), np.random.default_rng(seed)
        )
        for atom in pre.proper_atoms:
            ids = {rep.clustering.cluster_of(v) for v in atom}
            assert len(ids) == 1


def test_monte_carlo_cost_vs_budget_bound():
    # ++- triangle with the LP-optimal metric: mean realized cost stays
    # within the closed-form budget plus measured-error slack
    g = SignedGraph(3, frozenset({(0, 1), (0, 2)}))
    pre = trivial_preclustering(3)
    x, _ = solve_triangle_lp(g, pre)
    eps = 0.05
    costs = []
    eps_r = 0.0
    for seed in range(600):
        rep = set_based_round(
            g, pre, x, RoundingParams(epsilon=eps, trials=1),
            np.random.default_rng(seed),
        )
        costs.append(rep.cost)
        eps_r = max(eps_r, rep.measured_eps_r)
    bound = sum(lp_budget(p in g.plus, x.x(*p)) for p in all_pairs(3))
    slack = (eps + eps_r) * len(pre.adm)
    assert np.mean(costs) <= bound + slack + 3 * np.std(costs) / np.sqrt(len(costs))


def test_measured_eps_r_is_trace_maximum(monkeypatch):
    # every set iteration and every non-cleanup pivot iteration records the
    # exact error of the marginals it sampled from; a scheme reports the
    # maximum over the traces of all its trials, not only the kept one
    import corrclust.round_pivot as round_pivot
    import corrclust.round_set as round_set

    original = round_set.rounding_trial
    runs = []

    def recording(*args, **kwargs):
        runs.append(original(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(round_set, "rounding_trial", recording)
    monkeypatch.setattr(round_pivot, "rounding_trial", recording)
    positive = beyond_kept = 0
    for seed in (3, 5):
        g = generate_instance("uniform_random", 8, None, seed)
        pre = precluster(g, AgreementParams(0.1))
        x, _ = solve_triangle_lp(g, pre)
        for fn in (set_based_round, round_pivot.pivot_based_round):
            runs.clear()
            rep = fn(g, pre, x, RoundingParams(epsilon=0.05, trials=3), np.random.default_rng(seed))
            assert len(runs) == 3 and rep in runs
            records = [rec for run in runs for rec in run.trace]
            assert all(("eps_r" in rec) == ("cleanup" not in rec) for rec in records)
            assert rep.measured_eps_r == max(rec.get("eps_r", 0.0) for rec in records)
            positive += rep.measured_eps_r > 0
            beyond_kept += rep.measured_eps_r > max(rec.get("eps_r", 0.0) for rec in rep.trace)
    assert positive >= 3 and beyond_kept >= 1


def test_infeasible_extension_returns_certificate():
    g = generate_instance("planted_cliques", 5, {"sizes": [5]}, 0)
    pre = precluster(g, AgreementParams(0.1))
    bad = dict.fromkeys(all_pairs(5), 0.0)
    bad[(0, 1)] = 1.0  # contradicts the atomic pin
    x = Metric.from_pairs(5, bad)
    with pytest.raises(SeparationFound) as found:
        set_based_round(g, pre, x, RoundingParams(epsilon=0.05, trials=2), np.random.default_rng(0))
    assert found.value.certificate.separates(x)


def test_ledger_errors_survive_python_O():
    # the reconciliation checks must raise, not assert: run both roundings
    # under -O with a tampered ledger that never records a realized cost
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        from corrclust.core import SignedGraph
        from corrclust.lp import solve_triangle_lp
        from corrclust.precluster import AgreementParams, precluster
        from corrclust.round_pivot import pivot_based_round
        from corrclust.round_set import BudgetLedger, LedgerError, RoundingParams, set_based_round

        print("optimize", sys.flags.optimize)
        BudgetLedger.charge = lambda self, mask: None
        g = SignedGraph(3, frozenset({(0, 1), (0, 2)}))  # every clustering costs >= 1
        pre = precluster(g, AgreementParams(0.1))
        x, _ = solve_triangle_lp(g, pre)
        for fn in (set_based_round, pivot_based_round):
            try:
                fn(g, pre, x, RoundingParams(epsilon=0.05, trials=1), np.random.default_rng(0))
                print(fn.__name__, "passed")
            except LedgerError as e:
                print(fn.__name__, "LedgerError", e)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120, check=True
    ).stdout.splitlines()
    assert out[0] == "optimize 1"
    assert out[1].startswith("set_based_round LedgerError ledger realized 0, clustering costs")
    assert out[2].startswith("pivot_based_round LedgerError ledger realized 0, clustering costs")
