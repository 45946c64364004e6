"""Set-based rounding: sample a cluster size, a size-weighted pivot, then
complete the cluster by correlated rounding; re-solve the lifted LP on the
remaining vertices each iteration.

Budget accounting: when a pair is decided (at least one endpoint gets
clustered) it releases its LP budget, 2x/(1+x) for a +pair and (1-x)/(1+x)
for a -pair, plus an error budget of epsilon if the pair is admissible; when
a vertex is clustered it releases a difference budget of 2 epsilon d_adm(v).
Each pair and each vertex releases at most once over a full run, so the
ledger totals are capped by (and at completion equal) the closed forms.

The trial code that pivot rounding shares lives here as well: one decide
step (:func:`decide_cluster`), one trial loop (:func:`rounding_trial`) and
one :func:`best_of_trials`; a scheme supplies how a cluster is drawn and its
budget functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable

import numpy as np

from .core import (
    ADMISSIBLE,
    Clustering,
    Metric,
    Pair,
    PreclusteredInstance,
    SignedGraph,
    all_pairs,
    clustering_cost,
)
from .correlated import (
    ConditionedMarginals,
    contract_to_representatives,
    exact_pair_probabilities,
    measure_pairwise_error,
    rt_sample,
)
from .lp import (
    LiftedSolution,
    SeparationCertificate,
    build_set_lp,
    lifted_from_result,
    solve,
)

PROB_FLOOR = 1e-12


class LedgerError(RuntimeError):
    """A budget ledger that breaks at-most-once release or does not reconcile
    with the realized clustering or the closed-form budget ceilings.  Raised,
    not asserted, so the checks also run under ``python -O``."""


class SeparationFound(Exception):
    """A lifted LP is infeasible for the metric being rounded.  The run ends
    without a clustering; ``certificate`` separates that metric."""

    def __init__(self, certificate: SeparationCertificate):
        super().__init__(certificate.provenance)
        self.certificate = certificate


@dataclass(frozen=True)
class RoundingParams:
    """Knobs shared by both rounding schemes; their defaults live in
    :class:`corrclust.combine.PipelineConfig`."""

    epsilon: float
    trials: int

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


def lp_budget(is_plus: bool, x: float) -> float:
    """Per-pair LP budget of the set-based scheme."""
    return 2 * x / (1 + x) if is_plus else (1 - x) / (1 + x)


class BudgetLedger:
    """Running budget totals and realized cost, each summed in release
    order; every pair and vertex releases, and every pair is charged, at
    most once."""

    def __init__(self) -> None:
        self.lp_total = self.err_total = self.diff_total = 0.0
        self.realized_total = 0
        self._released_pairs: set[Pair] = set()
        self._released_vertices: set[int] = set()
        self._charged_pairs: set[Pair] = set()

    def release_pair(self, p: Pair, lp_amount: float, err_amount: float) -> None:
        if p in self._released_pairs:
            raise LedgerError(f"pair {p} released twice")
        self._released_pairs.add(p)
        self.lp_total += lp_amount
        self.err_total += err_amount

    def release_vertex(self, v: int, amount: float) -> None:
        if v in self._released_vertices:
            raise LedgerError(f"vertex {v} released twice")
        self._released_vertices.add(v)
        self.diff_total += amount

    def record_cost(self, p: Pair) -> None:
        if p in self._charged_pairs:
            raise LedgerError(f"pair {p} charged twice")
        self._charged_pairs.add(p)
        self.realized_total += 1

    def totals(self) -> dict[str, float]:
        return {
            "lp_budget": self.lp_total,
            "error_budget": self.err_total,
            "difference_budget": self.diff_total,
            "realized_cost": float(self.realized_total),
        }

    def reconcile(self, cost: int, ceilings: dict[str, float]) -> None:
        """Check a completed run: the realized cost equals the clustering's
        cost, and each named total (``lp_budget``, ``error_budget``,
        ``difference_budget``) equals its closed-form ceiling."""
        if cost != self.realized_total:
            raise LedgerError(f"ledger realized {self.realized_total}, clustering costs {cost}")
        totals = self.totals()
        for name, ceiling in ceilings.items():
            if not abs(totals[name] - ceiling) <= 1e-9:
                raise LedgerError(f"{name} total {totals[name]!r} off its ceiling {ceiling!r}")


@dataclass
class RoundingReport:
    """Outcome of one rounding run (or the best of several trials)."""

    scheme: str
    clustering: Clustering
    cost: int
    ledger: BudgetLedger
    measured_eps_r: float
    trace: list[dict]

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "cost": self.cost,
            "measured_eps_r": self.measured_eps_r,
            "trace": self.trace,
            "clustering": list(self.clustering.assignment),
            "ledger": self.ledger.totals(),
        }


class SolveCache:
    """Memoizes the builder's result per remaining vertex set; set rounding
    stores the lifted solution."""

    def __init__(self, builder: Callable[[frozenset[int]], object]):
        self._builder = builder
        self._store: dict[frozenset[int], object] = {}

    def get(self, key: frozenset[int]):
        if key not in self._store:
            self._store[key] = self._builder(key)
        return self._store[key]


def _normalized(weights: np.ndarray, what: str) -> np.ndarray:
    total = weights.sum()
    if not (abs(total - 1.0) < 1e-6):
        raise RuntimeError(f"{what} weights sum to {total}, expected 1")
    return weights / total


def conditioned_marginals_for(
    sol: LiftedSolution, s: int, u: int, pre: PreclusteredInstance, vprime: Iterable[int]
) -> tuple[ConditionedMarginals, dict[int, list[int]]]:
    """Marginals conditioned on pivot u and size s, contracted to one
    representative per atom (members of an atom share their lift values)."""
    ysu = sol.ys_of(s, (u,))
    if ysu < PROB_FLOOR:
        raise RuntimeError(f"conditioning on (s={s}, u={u}) with mass {ysu}")
    ku = pre.atom_of(u)
    rest = [v for v in vprime if v not in ku]
    reps, groups = contract_to_representatives(rest, pre.atom_of)
    m = ConditionedMarginals.clamped(
        reps, lambda a: min(1.0, max(0.0, sol.ys_of(s, (a, u)) / ysu)), lambda a, b: sol.ys_of(s, (a, b, u)) / ysu
    )
    return m, groups


def set_based_cstr_clst(
    vprime: Iterable[int],
    sol: LiftedSolution,
    pre: PreclusteredInstance,
    rng: np.random.Generator,
) -> tuple[set[int], dict, ConditionedMarginals]:
    """Sample one cluster: size s with weight y^s_0/y_0, pivot u with weight
    y^s_u / (s y^s_0), then correlated rounding at atom granularity; the
    pivot's atom always joins.  Returns the cluster, its trace record and
    the conditioned marginals it was rounded from."""
    verts = sorted(vprime)
    n = len(verts)
    y0 = sol.y0
    if y0 <= PROB_FLOOR:
        raise RuntimeError(f"degenerate lift: y_empty = {y0}")
    s_weights = np.array([max(0.0, sol.ys_of(s, ())) for s in range(1, n + 1)]) / y0
    s_weights = _normalized(s_weights, "cluster-size")
    s = int(rng.choice(n, p=s_weights)) + 1
    ys0 = sol.ys_of(s, ())
    u_weights = np.array([max(0.0, sol.ys_of(s, (u,))) for u in verts]) / (s * ys0)
    u_weights = _normalized(u_weights, "pivot")
    u = verts[int(rng.choice(n, p=u_weights))]
    m, groups = conditioned_marginals_for(sol, s, u, pre, verts)
    chosen_reps = rt_sample(m, rng)
    cluster = set(pre.atom_of(u)) & set(verts)
    for rep in chosen_reps:
        cluster.update(groups[rep])
    return cluster, {"s": s, "u": u, "size": len(cluster)}, m


def decide_cluster(
    g: SignedGraph,
    pre: PreclusteredInstance,
    x: Metric,
    ledger: BudgetLedger,
    rem: set[int],
    cluster: set[int],
    pair_budget: Callable[[bool, float], float],
    epsilon: float,
    vertex_budget: Callable[[int], float] | None = None,
) -> None:
    """Release budgets and charge realized costs for one removed cluster:
    every remaining pair with an endpoint in the cluster releases its pair
    budget (plus epsilon if admissible), and with a ``vertex_budget`` every
    clustered vertex releases its difference budget."""
    remaining = sorted(rem)
    for i, v in enumerate(remaining):
        in_v = v in cluster
        for w in remaining[i + 1 :]:
            in_w = w in cluster
            if not (in_v or in_w):
                continue
            p = (v, w)
            is_plus = p in g.plus
            adm = pre.pair_class[v, w] == ADMISSIBLE
            ledger.release_pair(p, pair_budget(is_plus, x.x(v, w)), epsilon if adm else 0.0)
            if (is_plus and in_v != in_w) or (not is_plus and in_v and in_w):
                ledger.record_cost(p)
    if vertex_budget is not None:
        for v in cluster:
            ledger.release_vertex(v, vertex_budget(v))


def rounding_trial(
    scheme: str,
    g: SignedGraph,
    pre: PreclusteredInstance,
    x: Metric,
    epsilon: float,
    draw: Callable[[set[int], np.random.Generator], tuple[set[int], dict]],
    pair_budget: Callable[[bool, float], float],
    rng: np.random.Generator,
    vertex_budget: Callable[[int], float] | None = None,
) -> RoundingReport:
    """One run of a scheme: ``draw`` removes clusters until every vertex is
    clustered, each decided by :func:`decide_cluster`, and the ledger is
    reconciled against the closed-form ceilings.  The trial's measured error
    is the largest ``eps_r`` in its trace."""
    rem = set(range(g.n))
    ledger = BudgetLedger()
    trace: list[dict] = []
    clusters: list[set[int]] = []
    while rem:
        cluster, rec = draw(rem, rng)
        if not cluster or not cluster <= rem:
            raise RuntimeError(f"drew {sorted(cluster)}, not a nonempty subset of {sorted(rem)}")
        decide_cluster(g, pre, x, ledger, rem, cluster, pair_budget, epsilon, vertex_budget)
        rem -= cluster
        clusters.append(cluster)
        trace.append(rec)
    clustering = Clustering.from_sets(g.n, clusters)
    cost = clustering_cost(g, clustering)
    # a completed run has released every budget exactly once
    ceilings = {
        "lp_budget": sum(pair_budget(p in g.plus, x.x(*p)) for p in all_pairs(g.n)),
        "error_budget": epsilon * len(pre.adm),
    }
    if vertex_budget is not None:
        ceilings["difference_budget"] = sum(vertex_budget(v) for v in range(g.n))
    ledger.reconcile(cost, ceilings)
    eps_r = max((rec.get("eps_r", 0.0) for rec in trace), default=0.0)
    return RoundingReport(scheme, clustering, cost, ledger, eps_r, trace)


def best_of_trials(
    trials: int, rng: np.random.Generator, trial: Callable[[np.random.Generator], RoundingReport]
) -> RoundingReport:
    """Cheapest of ``trials`` runs on independent streams (the first on a
    tie), reporting the largest measured error over all of them."""
    reports = [trial(stream) for stream in rng.spawn(trials)]
    best = min(reports, key=lambda rep: rep.cost)
    best.measured_eps_r = max(rep.measured_eps_r for rep in reports)
    return best


def set_based_round(
    g: SignedGraph,
    pre: PreclusteredInstance,
    x: Metric,
    params: RoundingParams,
    rng: np.random.Generator,
) -> RoundingReport:
    """Best of ``params.trials`` independent runs; LP solutions are shared
    across trials through a per-call cache keyed by the remaining vertex set.
    Every sampled iteration records the exact correlation error of its
    conditioned marginals as ``eps_r``.  Raises :class:`SeparationFound` as
    soon as the LP extension of a remaining vertex set is infeasible."""

    def build(key: frozenset[int]) -> LiftedSolution:
        lp = build_set_lp(sorted(key), pre, x, params.epsilon)
        res = solve(lp)
        if res.status == "infeasible":
            raise SeparationFound(res.certificate)
        return lifted_from_result(lp, res)

    cache = SolveCache(build)

    def draw(rem: set[int], rng: np.random.Generator) -> tuple[set[int], dict]:
        cluster, rec, m = set_based_cstr_clst(rem, cache.get(frozenset(rem)), pre, rng)
        rec["eps_r"] = measure_pairwise_error(m)
        return cluster, rec

    def vertex_budget(v: int) -> float:
        return 2 * params.epsilon * pre.d_adm(v)

    return best_of_trials(
        params.trials,
        rng,
        lambda stream: rounding_trial(
            "set", g, pre, x, params.epsilon, draw, lp_budget, stream, vertex_budget
        ),
    )


# ---------------------------------------------------------------------------
# Exact per-iteration analysis (no sampling); used by tests and diagnostics
# ---------------------------------------------------------------------------


@dataclass
class IterationAnalysis:
    """Closed-form per-iteration statistics of the cluster sampler.

    ``pair_err`` is the exact aggregated deviation of the sampler's pair
    statistics from the lift's conditional targets,
    sum over (s,u) branches of P(s,u) |Pr[both in C | s,u] - y^s_{suv}/y^s_u|.
    """

    p_clustered: dict[int, float]
    p_decided: dict[Pair, float]
    pair_err: dict[Pair, float]
    expected_cost: float
    expected_lp_budget: float
    expected_err_budget: float
    expected_diff_budget: float

    @property
    def expected_budget(self) -> float:
        return self.expected_lp_budget + self.expected_err_budget + self.expected_diff_budget


def analyze_cluster_sampler(
    vprime: Iterable[int],
    sol: LiftedSolution,
    pre: PreclusteredInstance,
    g: SignedGraph,
    x: Metric,
    epsilon: float,
) -> IterationAnalysis:
    """Exact expectations of one set_based_cstr_clst call, by enumeration of
    (size, pivot, seed-branch) with the same semantics as the sampler."""
    verts = sorted(vprime)
    n = len(verts)
    y0 = sol.y0
    upper = list(combinations(range(n), 2))
    inc, both, err = np.zeros(n), np.zeros((n, n)), np.zeros((n, n))
    for s in range(1, n + 1):
        ys0 = sol.ys_of(s, ())
        p_s = max(0.0, ys0) / y0
        if p_s < PROB_FLOOR:
            continue
        for u in verts:
            ysu = sol.ys_of(s, (u,))
            p_u = max(0.0, ysu) / (s * ys0)
            w_su = p_s * p_u
            if w_su < PROB_FLOOR or ysu < PROB_FLOOR:
                continue
            m, groups = conditioned_marginals_for(sol, s, u, pre, verts)
            # joint over the representatives and, at index k, the pivot's atom (always in)
            k = len(m.ground)
            joint = np.ones((k + 1, k + 1))
            joint[:k, :k] = exact_pair_probabilities(m)
            joint[k, :k] = joint[:k, k] = joint.diagonal()[:k]
            at = {v: i for i, rep in enumerate(m.ground) for v in groups[rep]}
            idx = [at.get(v, k) for v in verts]
            cl = joint[np.ix_(idx, idx)]
            inc += w_su * cl.diagonal()
            both += w_su * cl
            for i, j in upper:
                ideal = min(1.0, max(0.0, sol.ys_of(s, (verts[i], verts[j], u)) / ysu))
                err[i, j] += w_su * abs(cl[i, j] - ideal)
    decided, pair_err = {}, {}
    e_cost = e_lp = e_err = 0.0
    for i, j in upper:
        a, b = verts[i], verts[j]
        dec = inc[i] + inc[j] - both[i, j]
        decided[(a, b)] = dec
        pair_err[(a, b)] = err[i, j]
        is_plus = (a, b) in g.plus
        p_wrong = inc[i] + inc[j] - 2 * both[i, j] if is_plus else both[i, j]
        e_cost += p_wrong
        e_lp += lp_budget(is_plus, x.x(a, b)) * dec
        if pre.pair_class[a, b] == ADMISSIBLE:
            e_err += epsilon * dec
    e_diff = sum(2 * epsilon * pre.d_adm(v) * inc[i] for i, v in enumerate(verts))
    return IterationAnalysis(dict(zip(verts, inc.tolist())), decided, pair_err, e_cost, e_lp, e_err, e_diff)
