"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured quantities.  Tolerances are pinned here and
match the package's documented guarantees; run with `pytest -s` to see the
per-criterion lines."""

import time

import numpy as np
import pytest

from corrclust.combine import PipelineConfig, acn_pivot, full_pipeline
from corrclust.core import (
    SignedGraph,
    all_pairs,
    clustering_cost,
    generate_instance,
)
from corrclust.correlated import (
    ConditionedMarginals,
    exact_inclusion_probabilities,
    rt_sample,
)
from corrclust.exact import brute_force_opt, naive_opt
from corrclust.lp import build_set_lp, lifted_from_result, solve, solve_triangle_lp
from corrclust.precluster import AgreementParams, precluster
from corrclust.round_set import analyze_cluster_sampler
from corrclust.verify import (
    COMBINED_RATIO_BOUND,
    TrianglePoint,
    case2c_quartic,
    certify_triangle_kind,
    verify_f_constant,
    verify_final_ratio,
    verify_triangle_case,
)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_ratio_bound_certification():
    t0 = time.time()
    res = verify_final_ratio(grid_step=1e-4)
    elapsed = time.time() - t0
    ok = (
        res.max_value <= COMBINED_RATIO_BOUND + 1e-6
        and abs(res.argmax - 0.485) <= 2 * 1e-4
        and abs(res.minus_edge_value - 1.58) <= 1e-12
        and elapsed < 1.0
    )
    _report(
        "criterion 1 (combined ratio bound)",
        ok,
        f"max {res.max_value:.7f} at x={res.argmax:.4f}, -edge {res.minus_edge_value}, {elapsed:.2f}s",
    )


def test_criterion_2_triangle_analysis_certification():
    t0 = time.time()
    rng = np.random.default_rng(20240)
    worst = {}
    failures = 0
    for kind in ("---", "+--", "++-"):
        res = certify_triangle_kind(kind, 100_000, rng)
        worst[kind] = res["worst_margin"]
        failures += res["failures"]
    lhs, rhs, ok_eq = verify_triangle_case("---", TrianglePoint(1.0, 1.0, 1.0, 1.0))
    eq_minus = ok_eq and lhs == rhs == 3.0
    l2, r2, ok2 = verify_triangle_case("++-", TrianglePoint(0.5, 0.5, 0.0, 0.0))
    quartic = abs(float(case2c_quartic(0.5)))
    eq_ppm = ok2 and abs(l2 - r2) <= 1e-12 and quartic <= 1e-12
    elapsed = time.time() - t0
    ok = failures == 0 and eq_minus and eq_ppm and elapsed < 30.0
    _report(
        "criterion 2 (triangle analysis)",
        ok,
        f"3x100000 points, failures {failures}, worst margins "
        + ", ".join(f"{k}:{v:.2e}" for k, v in worst.items())
        + f", ---equality {lhs}={rhs}, quartic(1/2)={quartic:.1e}, {elapsed:.1f}s",
    )


def test_criterion_3_f_constant_certification():
    res = verify_f_constant()
    ok = res.ok and abs(res.equality_gap_at_half) <= 1e-12
    _report(
        "criterion 3 (budget constant)",
        ok,
        f"grid 1e-5 on (0,0.5], max violation {res.max_violation:.1e}, "
        f"gap at 1/2 = {res.equality_gap_at_half:.1e}",
    )


def test_criterion_4_cluster_sampler_identity():
    # 20 random instances with n <= 6 whose LP-derived lifts exist (metrics
    # that get cut are legitimate round-or-cut outcomes and carry no lift)
    collected = 0
    seed = 0
    worst = 0.0
    while collected < 20:
        n = 4 + seed % 3
        g = generate_instance("uniform_random", n, None, seed)
        seed += 1
        pre = precluster(g, AgreementParams(0.1))
        x, _ = solve_triangle_lp(g, pre)
        lp = build_set_lp(range(n), pre, x, epsilon=0.05)
        res = solve(lp)
        if res.status != "optimal":
            continue
        sol = lifted_from_result(lp, res)
        ana = analyze_cluster_sampler(range(n), sol, pre, g, x, 0.05)
        dev = max(abs(p - 1.0 / sol.y0) for p in ana.p_clustered.values())
        worst = max(worst, dev)
        collected += 1
    _report(
        "criterion 4 (per-call clustering probability identity)",
        worst <= 1e-9,
        f"20 instances (scanned {seed} seeds), max |Pr[v clustered] - 1/y0| = {worst:.2e}",
    )


def _mixture(n, k, seed):
    rng = np.random.default_rng(seed)
    vecs = rng.random((k, n)) < rng.random((k, 1))
    wts = rng.dirichlet(np.ones(k))
    ground = tuple(range(n))
    joint = [[(wts * (vecs[:, u] & vecs[:, v])).sum() for v in ground] for u in ground]
    return ConditionedMarginals(ground, joint)


def test_criterion_5_sampler_marginal_exactness():
    # exact branch enumeration for ground sets up to 6
    worst_exact = 0.0
    for seed in range(10):
        m = _mixture(4 + seed % 3, 6, seed)
        inc = exact_inclusion_probabilities(m)
        worst_exact = max(worst_exact, max(abs(inc[v] - m.marginal[v]) for v in m.ground))
    # Monte Carlo for a ground set of size 20
    m20 = _mixture(20, 12, 99)
    rng = np.random.default_rng(7)
    draws = 100_000
    hits = dict.fromkeys(m20.ground, 0)
    for _ in range(draws):
        for v in rt_sample(m20, rng):
            hits[v] += 1
    worst_z = 0.0
    for v in m20.ground:
        p = m20.marginal[v]
        se = np.sqrt(max(p * (1 - p), 1e-12) / draws)
        worst_z = max(worst_z, abs(hits[v] / draws - p) / se)
    ok = worst_exact <= 1e-12 and worst_z <= 3.0
    _report(
        "criterion 5 (marginal exactness)",
        ok,
        f"enumeration dev {worst_exact:.1e} (<=1e-12), MC worst z {worst_z:.2f} (<=3)",
    )


def test_criterion_6_oracle_consistency():
    pairs4 = list(all_pairs(4))
    for mask in range(1 << 6):
        plus = frozenset(p for i, p in enumerate(pairs4) if mask >> i & 1)
        g = SignedGraph(4, plus)
        assert brute_force_opt(g)[1] == naive_opt(g)
    mismatches = 0
    for seed in range(100):
        g = generate_instance("uniform_random", 8, None, seed)
        if brute_force_opt(g)[1] != naive_opt(g):
            mismatches += 1
    _report(
        "criterion 6 (oracle consistency)",
        mismatches == 0,
        f"64 exhaustive n=4 signings and 100 random n=8 instances, {mismatches} mismatches",
    )


def _criterion7_reports():
    config = PipelineConfig(epsilon_q=0.1, epsilon=0.05, r=3, trials=32)
    reports = []
    for seed in range(50):
        g = generate_instance("uniform_random", 10, None, seed)
        reports.append(full_pipeline(g, config, seed))
    return reports


@pytest.fixture(scope="module")
def pipeline_reports():
    t0 = time.time()
    reports = _criterion7_reports()
    return reports, time.time() - t0


@pytest.mark.slow
def test_criterion_7_end_to_end_guarantee(pipeline_reports):
    reports, elapsed = pipeline_reports
    holds = 0
    edge_checks = 0
    certs = 0
    for rep in reports:
        if rep["outcome"] != "clustering":
            certs += 1
            continue
        if rep["combined"]["edge_bounds"]["per_edge_ok"]:
            edge_checks += 1
        if rep["oracle"]["holds_vs_opt"]:
            holds += 1
    ok = holds >= 48 and edge_checks == len(reports) - certs and elapsed < 600
    _report(
        "criterion 7 (desk-scale guarantee, 50 seeds, best of 32)",
        ok,
        f"bound held on {holds}/50, per-edge checks {edge_checks}, "
        f"certificates {certs}, {elapsed:.0f}s (<600s)",
    )


@pytest.mark.slow
def test_criterion_8_acn_baseline(pipeline_reports):
    ppm = SignedGraph(3, frozenset({(0, 1), (0, 2)}))
    rng = np.random.default_rng(0)
    costs = {clustering_cost(ppm, acn_pivot(ppm, rng)) for _ in range(10_000)}
    triangle_ok = costs == {1}
    bad = 0
    for seed in range(50):
        g = generate_instance("uniform_random", 10, None, seed)
        opt = brute_force_opt(g)[1]
        rng = np.random.default_rng(seed + 1)
        mean = np.mean([clustering_cost(g, acn_pivot(g, rng)) for _ in range(200)])
        if mean > 3 * opt + 1:
            bad += 1
    _report(
        "criterion 8 (combinatorial pivot sanity)",
        triangle_ok and bad == 0,
        f"triangle always 1: {triangle_ok}; mean <= 3 opt + 1 failed on {bad}/50",
    )


def test_criterion_9_preclustering_structure():
    rng = np.random.default_rng(17)
    degree_bad = 0
    struct_bad = 0
    planted_bad = 0
    for i in range(100):
        kind = ("uniform_random", "planted_cliques", "adversarial_mix")[i % 3]
        if kind == "uniform_random":
            n = int(rng.integers(5, 61))
            g = generate_instance(kind, n, None, i)
            noise = None
        else:
            k = int(rng.integers(2, 5))
            sizes = [int(rng.integers(2, 13)) for _ in range(k)]
            extra = int(rng.integers(0, 8)) if kind == "adversarial_mix" else 0
            n = min(60, sum(sizes) + extra)
            sizes = sizes if sum(sizes) <= n else [2, 2]
            noise = float(rng.choice([0.0, 0.0, 0.02]))
            g = generate_instance(kind, n, {"sizes": sizes, "noise": noise}, i)
        pre = precluster(g, AgreementParams(0.1))
        try:
            pre.validate()
        except ValueError:
            struct_bad += 1
            continue
        inv3, inv1 = 2.0 / 0.1**3, 2.0 / 0.1
        for v in range(g.n):
            if pre.d_adm(v) + len(pre.atom_of(v)) - 1 > inv3 * g.degree(v) + 1e-9:
                degree_bad += 1
                break
        else:
            for (u, v) in all_pairs(g.n):
                if pre.classify_pair(u, v) != "non_admissible":
                    if g.degree(u) > inv1 * g.degree(v) or g.degree(v) > inv1 * g.degree(u):
                        degree_bad += 1
                        break
        if kind == "planted_cliques" and noise == 0.0:
            want, v0 = [], 0
            for s in sizes:
                want.append(frozenset(range(v0, v0 + s)))
                v0 += s
            if tuple(sorted(want, key=min)) != pre.proper_atoms:
                planted_bad += 1
    ok = degree_bad == 0 and struct_bad == 0 and planted_bad == 0
    _report(
        "criterion 9 (preclustering structure, 100 instances)",
        ok,
        f"degree-bound violations {degree_bad}, structural {struct_bad}, planted-atom {planted_bad}",
    )


@pytest.mark.slow
def test_criterion_10_budget_ledger_soundness(pipeline_reports):
    # at-most-once release is enforced in-band during every trial of (7)
    # (a violation raises and would have failed criterion 7), and completed
    # trials check their totals against the closed-form ceilings, raising
    # LedgerError even under python -O; here the retained reports are
    # re-verified explicitly
    reports, _ = pipeline_reports
    checked = 0
    worst = 0.0
    for rep in reports:
        if rep["outcome"] != "clustering":
            continue
        eadm = rep["preclustering"]["num_admissible"]
        for scheme in ("set", "pivot"):
            led = rep["combined"][scheme]["ledger"]
            worst = max(worst, abs(led["error_budget"] - 0.05 * eadm))
            checked += 1
    _report(
        "criterion 10 (budget ledger soundness)",
        worst <= 1e-9 and checked > 0,
        f"{checked} retained ledgers re-verified, worst error-budget deviation {worst:.1e}; "
        "per-trial ceilings asserted in-band",
    )
