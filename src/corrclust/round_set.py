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
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .core import (
    ADMISSIBLE,
    Clustering,
    Metric,
    Pair,
    PreclusteredInstance,
    SignedGraph,
    clustering_cost,
    running_sum,
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


def lp_budget(is_plus, x):
    """Per-pair LP budget of the set-based scheme, elementwise; a numpy scalar on scalar input."""
    return np.where(is_plus, 2 * x / (1 + x), (1 - x) / (1 + x))[()]


class BudgetTables(NamedTuple):
    """What one rounding call charges, built once per call by
    :func:`budget_tables`: n x n tables of each pair's sign (True on a
    +pair), its budget under the scheme and its error budget (epsilon if
    admissible, else 0.0), the upper-triangular mask that names each pair
    once, and each vertex's difference budget (None for a scheme without
    one)."""

    plus: np.ndarray
    budget: np.ndarray
    err: np.ndarray
    upper: np.ndarray
    vertex: np.ndarray | None


def budget_tables(
    g: SignedGraph,
    pre: PreclusteredInstance,
    x: Metric,
    pair_budget: Callable[[np.ndarray, np.ndarray], np.ndarray],
    epsilon: float,
    vertex: np.ndarray | None = None,
) -> BudgetTables:
    return BudgetTables(g.plus_table, pair_budget(g.plus_table, x.table), np.where(pre.pair_class == ADMISSIBLE, epsilon, 0.0),
                        np.triu(np.ones((g.n, g.n), dtype=bool), 1), vertex)


class BudgetLedger:
    """Running budget totals and realized cost over n vertices, each summed
    in release order; boolean masks record the released pairs and vertices
    and the charged pairs, so each is released, or charged, at most once."""

    def __init__(self, n: int) -> None:
        self.lp_total = self.err_total = self.diff_total = 0.0
        self.realized_total = 0
        self._released_pairs = np.zeros((n, n), dtype=bool)
        self._released_vertices = np.zeros(n, dtype=bool)
        self._charged_pairs = np.zeros((n, n), dtype=bool)

    def release_pairs(self, mask: np.ndarray, lp_table: np.ndarray, err_table: np.ndarray) -> None:
        """Release the pairs (v, w) of the upper-triangular ``mask``: their
        entries of each table join its total in ascending (v, w) order."""
        _mark_once(self._released_pairs, mask, "released")
        self.lp_total = float(running_sum(lp_table[mask], self.lp_total))
        self.err_total = float(running_sum(err_table[mask], self.err_total))

    def release_vertices(self, vertices: list[int], amounts: np.ndarray) -> None:
        """Release ``vertices``, adding ``amounts`` in their order."""
        mask = np.zeros_like(self._released_vertices)
        mask[vertices] = True
        if np.count_nonzero(mask) < len(vertices):
            raise LedgerError(f"vertices {vertices} repeat one")
        _mark_once(self._released_vertices, mask, "released")
        self.diff_total = float(running_sum(amounts, self.diff_total))

    def charge(self, mask: np.ndarray) -> None:
        """Charge a realized cost of 1 for each pair of the upper-triangular
        ``mask``."""
        _mark_once(self._charged_pairs, mask, "charged")
        self.realized_total += int(np.count_nonzero(mask))

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


def _mark_once(seen: np.ndarray, mask: np.ndarray, what: str) -> None:
    """Set ``seen`` where ``mask`` is set; raise LedgerError naming the first
    entry that was set already."""
    again = seen & mask
    if again.any():
        first = ", ".join(map(str, np.argwhere(again)[0].tolist()))
        raise LedgerError(f"{'pair' if seen.ndim == 2 else 'vertex'} {first} {what} twice")
    seen |= mask


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


def decide_cluster(t: BudgetTables, ledger: BudgetLedger, rem: set[int], cluster: set[int]) -> None:
    """Release budgets and charge realized costs for one removed cluster,
    a subset of ``rem``: every remaining pair with an endpoint in the
    cluster releases its pair budget and its error budget, in ascending
    (v, w) order, and is charged if it is a +pair the cluster splits or a
    -pair it holds; with vertex budgets every clustered vertex releases its
    own, in the cluster's iteration order."""
    in_rem, in_cluster = np.zeros(len(t.plus), dtype=bool), np.zeros(len(t.plus), dtype=bool)
    in_rem[list(rem)] = True
    members = list(cluster)
    in_cluster[members] = True
    decided = t.upper & (in_cluster[:, None] & in_rem | in_rem[:, None] & in_cluster)
    ledger.release_pairs(decided, t.budget, t.err)
    ledger.charge(decided & (t.plus != (in_cluster[:, None] & in_cluster)))
    if t.vertex is not None:
        ledger.release_vertices(members, t.vertex[members])


def rounding_trial(
    scheme: str,
    g: SignedGraph,
    t: BudgetTables,
    draw: Callable[[set[int], np.random.Generator], tuple[set[int], dict]],
    rng: np.random.Generator,
) -> RoundingReport:
    """One run of a scheme: ``draw`` removes clusters until every vertex is
    clustered, each decided by :func:`decide_cluster`, and the ledger is
    reconciled against the closed-form ceilings.  The trial's measured error
    is the largest ``eps_r`` in its trace."""
    rem = set(range(g.n))
    ledger = BudgetLedger(g.n)
    trace: list[dict] = []
    clusters: list[set[int]] = []
    while rem:
        cluster, rec = draw(rem, rng)
        if not cluster or not cluster <= rem:
            raise RuntimeError(f"drew {sorted(cluster)}, not a nonempty subset of {sorted(rem)}")
        decide_cluster(t, ledger, rem, cluster)
        rem -= cluster
        clusters.append(cluster)
        trace.append(rec)
    clustering = Clustering.from_sets(g.n, clusters)
    cost = clustering_cost(g, clustering)
    # a completed run has released every budget exactly once
    ceilings = {"lp_budget": t.budget[t.upper].sum(), "error_budget": t.err[t.upper].sum()}
    if t.vertex is not None:
        ceilings["difference_budget"] = t.vertex.sum()
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

    tables = budget_tables(g, pre, x, lp_budget, params.epsilon, 2 * params.epsilon * np.array(pre._adm_degree))
    return best_of_trials(params.trials, rng, lambda stream: rounding_trial("set", g, tables, draw, stream))


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
    i, j = np.triu_indices(n, 1)
    a, b = np.array(verts)[i], np.array(verts)[j]
    dec, is_plus = inc[i] + inc[j] - both[i, j], g.plus_table[a, b]
    e_cost = running_sum(np.where(is_plus, inc[i] + inc[j] - 2 * both[i, j], both[i, j]))
    e_lp = running_sum(lp_budget(is_plus, x.table[a, b]) * dec)
    e_err = running_sum((epsilon * dec)[pre.pair_class[a, b] == ADMISSIBLE])
    e_diff = sum(2 * epsilon * pre.d_adm(v) * inc[k] for k, v in enumerate(verts))
    pairs = list(zip(a.tolist(), b.tolist()))
    return IterationAnalysis(dict(zip(verts, inc.tolist())), dict(zip(pairs, dec.tolist())),
                             dict(zip(pairs, err[i, j].tolist())), float(e_cost), float(e_lp), float(e_err), e_diff)
