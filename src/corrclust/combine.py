"""Combination of the two roundings, the combinatorial pivot baseline, and
the end-to-end pipeline from a raw signed graph to a final clustering.

The combined guarantee takes the cheaper of the set-based and pivot-based
clusterings; per +edge the weighted bound 0.42 * 2x/(1+x) +
0.58 * min(1.515+x, 2) x stays below 1.7257 x, and per -edge below
1.58 (1-x), which is what makes the min of the two costs a
1.73-approximation up to the additive admissible-pair error terms.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    Clustering,
    Metric,
    PreclusteredInstance,
    SignedGraph,
    all_pairs,
)
from .exact import DEFAULT_LIMIT, brute_force_opt, brute_force_opt_good
from .lp import solve_triangle_lp
from .precluster import AgreementParams, precluster
from .round_pivot import pivot_based_round, pivot_budget
from .round_set import RoundingParams, RoundingReport, SeparationFound, lp_budget, set_based_round
from .verify import COMBINED_RATIO_BOUND, MINUS_EDGE_RATIO, PIVOT_WEIGHT, SET_WEIGHT

GUARANTEE_RATIO = 1.73  # multiplicative factor of the reported bound


def acn_pivot(g: SignedGraph, rng: np.random.Generator) -> Clustering:
    """Combinatorial pivot baseline: a uniform pivot grabs all its remaining
    +neighbors, repeat on the rest."""
    remaining = set(range(g.n))
    clusters: list[set[int]] = []
    while remaining:
        order = sorted(remaining)
        p = order[int(rng.integers(0, len(order)))]
        cluster = {p} | (g.plus_neighbors(p) & remaining)
        clusters.append(cluster)
        remaining -= cluster
    return Clustering.from_sets(g.n, clusters)


def combined_edge_bounds(g: SignedGraph, pre: PreclusteredInstance, x: Metric) -> dict:
    """Per-edge weighted bound of the two schemes, checked against the
    certified ratio times the LP contribution (plus-edges) and the -edge
    constant.  Returns totals and the worst per-edge slack."""
    total = 0.0
    worst_slack = float("inf")
    ok = True
    for p in all_pairs(g.n):
        xv = x.x(*p)
        is_plus = p in g.plus
        set_b = lp_budget(is_plus, xv)
        pivot_b = pivot_budget(is_plus, xv)
        comb = SET_WEIGHT * set_b + PIVOT_WEIGHT * pivot_b
        lp_contrib = xv if is_plus else 1.0 - xv
        cap = (COMBINED_RATIO_BOUND if is_plus else MINUS_EDGE_RATIO) * lp_contrib
        slack = cap - comb
        worst_slack = min(worst_slack, slack)
        ok = ok and slack >= -1e-9
        total += comb
    return {"total": total, "worst_edge_slack": worst_slack, "per_edge_ok": ok}


@dataclass
class CombinedReport:
    """Both rounding reports plus the cheaper clustering (ties go to pivot)."""

    set_report: RoundingReport
    pivot_report: RoundingReport
    chosen: str
    clustering: Clustering
    cost: int
    edge_bounds: dict

    @property
    def measured_eps_r(self) -> float:
        return max(self.set_report.measured_eps_r, self.pivot_report.measured_eps_r)

    def to_dict(self) -> dict:
        return {
            "chosen": self.chosen,
            "cost": self.cost,
            "clustering": list(self.clustering.assignment),
            "measured_eps_r": self.measured_eps_r,
            "edge_bounds": self.edge_bounds,
            "set": self.set_report.to_dict(),
            "pivot": self.pivot_report.to_dict(),
        }


def combined_round(
    g: SignedGraph,
    pre: PreclusteredInstance,
    x: Metric,
    params: RoundingParams,
    rng: np.random.Generator,
) -> CombinedReport:
    """Run both roundings (each best-of-trials) and keep the cheaper output.
    :class:`SeparationFound` from either side propagates to the caller."""
    rng_set, rng_pivot = rng.spawn(2)
    set_rep = set_based_round(g, pre, x, params, rng_set)
    pivot_rep = pivot_based_round(g, pre, x, params, rng_pivot)
    chosen = "pivot" if pivot_rep.cost <= set_rep.cost else "set"
    winner = pivot_rep if chosen == "pivot" else set_rep
    return CombinedReport(
        set_report=set_rep,
        pivot_report=pivot_rep,
        chosen=chosen,
        clustering=winner.clustering,
        cost=winner.cost,
        edge_bounds=combined_edge_bounds(g, pre, x),
    )


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end knobs, and the only home of their defaults: the
    desk-scale working point, which the CLI offers too.  The theory's
    parameter cascade is exposed as independent dials; every other value
    the pipeline uses is a module constant.  The lift order ``r`` is
    recorded in reports; 3 is the only order the lifted LPs implement.
    ``oracle_limit`` is at most the exact oracles' own limit.  At
    construction, before any work, :class:`AgreementParams` checks
    ``epsilon_q`` and :class:`RoundingParams` checks ``epsilon`` and
    ``trials``."""

    epsilon_q: float = 0.1
    epsilon: float = 0.05
    r: int = 3
    trials: int = 8
    oracle_limit: int = DEFAULT_LIMIT

    def __post_init__(self) -> None:
        if self.r != 3:
            raise ValueError(f"lift order r must be 3, got {self.r}")
        if not 0 <= self.oracle_limit <= DEFAULT_LIMIT:
            raise ValueError(f"oracle limit must lie in 0..{DEFAULT_LIMIT}, got {self.oracle_limit}")
        AgreementParams(self.epsilon_q)
        RoundingParams(self.epsilon, self.trials)


def full_pipeline(g: SignedGraph, config: PipelineConfig, seed: int) -> dict:
    """precluster -> triangle LP -> combined rounding -> report.

    The report carries the final cost, the fractional cost, oracle optima
    when n is within the configured limit, the ratio diagnostics, ledger
    totals, the measured correlation error, and the bound
    ``1.73 lp_cost + (epsilon + eps_r) |E_adm|`` with each of its three
    terms.  This is the one place that
    catches :class:`SeparationFound`: the report then records the
    certificate instead of a clustering, flagged, because the triangle-LP
    metric can lie outside the hull of good clusterings, and on some uniform
    instances it does; the pipeline does not yet cut it off and re-solve."""
    pre = precluster(g, AgreementParams(config.epsilon_q))
    x, lp_cost = solve_triangle_lp(g, pre)
    params = RoundingParams(epsilon=config.epsilon, trials=config.trials)
    report: dict = {
        "n": g.n,
        "seed": seed,
        "config": asdict(config),
        "num_plus": g.num_plus,
        "preclustering": {
            "atoms": [sorted(a) for a in pre.proper_atoms],
            "num_admissible": len(pre.adm),
        },
        "lp_cost": lp_cost,
    }
    try:
        outcome = combined_round(g, pre, x, params, np.random.default_rng([seed, 0]))
    except SeparationFound as found:
        # With x from the plain metric LP (no ellipsoid re-centering), a cut
        # is a legitimate outcome when x falls outside the hull of good
        # clusterings; it is rare at the default working point, so flag it
        # loudly for inspection.
        report["outcome"] = "separation_certificate"
        report["certificate"] = found.certificate.to_dict()
        report["unexpected_for_lp_derived_metric"] = True
        return report
    report["outcome"] = "clustering"
    report["combined"] = outcome.to_dict()
    report["cost"] = outcome.cost
    eps_r = outcome.measured_eps_r
    slack = (config.epsilon + eps_r) * len(pre.adm)
    report["guarantee"] = {
        "bound_vs_lp": GUARANTEE_RATIO * lp_cost + slack,
        "holds_vs_lp": outcome.cost <= GUARANTEE_RATIO * lp_cost + slack + 1e-9,
        "additive_slack": slack,
        # the three terms of bound_vs_lp
        "multiplicative": GUARANTEE_RATIO * lp_cost,
        "epsilon_slack": config.epsilon * len(pre.adm),
        "eps_r_slack": eps_r * len(pre.adm),
    }
    if g.n <= config.oracle_limit:
        _, opt = brute_force_opt(g)
        _, opt_good = brute_force_opt_good(g, pre)
        report["oracle"] = {
            "opt": opt,
            "opt_good": opt_good,
            "ratio_vs_opt": (outcome.cost / opt) if opt else (1.0 if outcome.cost == 0 else float("inf")),
            "bound_vs_opt": GUARANTEE_RATIO * opt + slack,
            "holds_vs_opt": outcome.cost <= GUARANTEE_RATIO * opt + slack + 1e-9,
        }
    return report
