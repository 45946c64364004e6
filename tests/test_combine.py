import hashlib
import json

import numpy as np
import pytest

from corrclust.combine import (
    CombinedReport,
    PipelineConfig,
    acn_pivot,
    combined_edge_bounds,
    combined_round,
    full_pipeline,
)
from corrclust.core import (
    Metric,
    SignedGraph,
    all_pairs,
    clustering_cost,
    generate_instance,
    trivial_preclustering,
)
from corrclust.lp import solve_triangle_lp
from corrclust.precluster import AgreementParams, precluster
from corrclust.round_set import RoundingParams, SeparationFound


def test_acn_examples():
    allp = SignedGraph(5, frozenset(all_pairs(5)))
    assert clustering_cost(allp, acn_pivot(allp, np.random.default_rng(0))) == 0
    allm = SignedGraph(5, frozenset())
    c = acn_pivot(allm, np.random.default_rng(1))
    assert c.num_clusters == 5
    ppm = SignedGraph(3, frozenset({(0, 1), (0, 2)}))
    for seed in range(300):
        assert clustering_cost(ppm, acn_pivot(ppm, np.random.default_rng(seed))) == 1


def test_combined_integral_tie_prefers_pivot():
    g = generate_instance("planted_cliques", 8, {"sizes": [4, 4]}, 0)
    pre = precluster(g, AgreementParams(0.1))
    x, _ = solve_triangle_lp(g, pre)
    rep = combined_round(g, pre, x, RoundingParams(epsilon=0.05, trials=1), np.random.default_rng(0))
    assert isinstance(rep, CombinedReport)
    assert rep.set_report.cost == rep.pivot_report.cost == 0
    assert rep.chosen == "pivot"
    assert rep.cost == 0


def test_combined_cost_is_min_of_both():
    for seed in range(4):
        g = generate_instance("uniform_random", 8, None, seed)
        pre = precluster(g, AgreementParams(0.1))
        x, _ = solve_triangle_lp(g, pre)
        rep = combined_round(g, pre, x, RoundingParams(epsilon=0.05, trials=2), np.random.default_rng(seed))
        assert rep.cost == min(rep.set_report.cost, rep.pivot_report.cost)


def test_combined_per_edge_bound():
    for seed in range(6):
        g = generate_instance("uniform_random", 9, None, seed + 60)
        pre = precluster(g, AgreementParams(0.1))
        x, _ = solve_triangle_lp(g, pre)
        res = combined_edge_bounds(g, pre, x)
        assert res["per_edge_ok"]
        assert res["worst_edge_slack"] >= -1e-9


def test_certificate_propagates():
    g = SignedGraph(3, frozenset(all_pairs(3)))
    pre = trivial_preclustering(3)
    x = Metric(3, {(0, 1): 0.0, (0, 2): 0.0, (1, 2): 1.0})
    with pytest.raises(SeparationFound) as found:
        combined_round(g, pre, x, RoundingParams(epsilon=0.05, trials=1), np.random.default_rng(0))
    assert found.value.certificate.separates(x)


def test_pipeline_reports_certificate():
    # uniform n=7 seed 140013: the set LP on all of V is infeasible for the
    # triangle-LP metric, so the run ends with the certificate
    g = generate_instance("uniform_random", 7, None, 140013)
    rep = full_pipeline(g, PipelineConfig(trials=16), 140013)
    assert rep["outcome"] == "separation_certificate"
    assert rep["certificate"]["provenance"] == "set-lp(n'=7,r=3)"
    assert rep["unexpected_for_lp_derived_metric"] is True
    assert not {"combined", "cost", "guarantee", "oracle"} & rep.keys()


def test_pipeline_config_lift_order():
    # 3 is the only lift order the lifted LPs implement; others fail fast
    assert PipelineConfig().r == 3
    for r in (2, 4):
        with pytest.raises(ValueError, match="lift order"):
            PipelineConfig(r=r)


def test_pipeline_config_oracle_limit():
    # the exact oracles stop at 16 vertices; a larger limit fails at
    # construction, not after the whole rounding has run
    assert PipelineConfig().oracle_limit == 16
    assert PipelineConfig(oracle_limit=0).oracle_limit == 0
    for limit in (17, -1):
        with pytest.raises(ValueError, match="oracle limit"):
            PipelineConfig(oracle_limit=limit)


def test_pipeline_config_rounding_knobs():
    # checked at construction, before the preclustering and the triangle LP
    with pytest.raises(ValueError, match="trials must be at least 1"):
        PipelineConfig(trials=0)
    for eps in (0.0, -0.05):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            PipelineConfig(epsilon=eps)
    for eps_q in (0.0, 1.0, 2.0):
        with pytest.raises(ValueError, match=r"epsilon_q must lie in \(0, 1\)"):
            PipelineConfig(epsilon_q=eps_q)


def test_full_pipeline_planted():
    g = generate_instance("planted_cliques", 8, {"sizes": [4, 4], "noise": 0.0}, 1)
    rep = full_pipeline(g, PipelineConfig(trials=4), seed=11)
    assert rep["outcome"] == "clustering"
    assert rep["cost"] == 0
    assert rep["oracle"]["opt"] == 0
    assert rep["oracle"]["ratio_vs_opt"] == 1.0
    assert rep["combined"]["edge_bounds"]["per_edge_ok"]


def test_full_pipeline_tiny_instances():
    for n in (1, 2, 3):
        g = generate_instance("uniform_random", n, None, 0)
        rep = full_pipeline(g, PipelineConfig(trials=2), seed=0)
        assert rep["outcome"] == "clustering"
        assert rep["cost"] == rep["oracle"]["opt"]


def test_full_pipeline_all_minus():
    g = SignedGraph(8, frozenset())
    rep = full_pipeline(g, PipelineConfig(trials=2), seed=3)
    assert rep["cost"] == 0


def test_full_pipeline_uniform_bound():
    g = generate_instance("uniform_random", 10, None, 42)
    rep = full_pipeline(g, PipelineConfig(trials=8), seed=42)
    assert rep["outcome"] == "clustering"
    assert rep["oracle"]["holds_vs_opt"]
    gu, adm = rep["guarantee"], rep["preclustering"]["num_admissible"]
    assert gu["holds_vs_lp"]
    # the bound is the sum of its three reported terms
    assert gu["multiplicative"] == 1.73 * rep["lp_cost"]
    assert gu["epsilon_slack"] == 0.05 * adm
    assert gu["eps_r_slack"] == rep["combined"]["measured_eps_r"] * adm > 0
    assert gu["bound_vs_lp"] == pytest.approx(gu["multiplicative"] + gu["epsilon_slack"] + gu["eps_r_slack"], abs=1e-9)


def test_full_pipeline_deterministic():
    g = generate_instance("uniform_random", 8, None, 5)
    a = full_pipeline(g, PipelineConfig(trials=3), seed=5)
    b = full_pipeline(g, PipelineConfig(trials=3), seed=5)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = full_pipeline(g, PipelineConfig(trials=3), seed=6)
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


PLANTED_GOLDEN = "38ac9969f2131cf44836270cba4d4f40fb1617f46ce5e48fb2bfe90b236f0ed5"


def test_full_pipeline_planted_report_digest():
    """Pins report content across code changes: the SHA-256 of the sort_keys
    JSON of six planted reports (the first six planted_n12_best4 instances
    of workload seed 1, at trials=2).  The digest is stable because each of
    these triangle-LP metrics x is integral: then the slack objective has a
    unique set-LP optimum on every remaining vertex set (the integral lift of
    x's clustering), and the pivot-LP values that rounding reads are forced
    by x.  So a change to solver method, row order or build path leaves
    these reports as they are; a change in what the pipeline computes does
    not.  After a HiGHS upgrade, re-pin only once lp_cost is checked
    unchanged."""
    reports = []
    for s in range(10000, 10006):
        g = generate_instance("planted_cliques", 12, {"sizes": [4, 4, 4], "noise": 0.02}, s)
        x, _ = solve_triangle_lp(g, precluster(g, AgreementParams(0.1)))
        assert set(x.values.values()) <= {0.0, 1.0}
        reports.append(full_pipeline(g, PipelineConfig(trials=2), s))
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == PLANTED_GOLDEN
