"""Pivot-based rounding with a cleanup pass.

One lifted LP solve up front; then repeatedly either remove an atom whose
deterministic removal cost is covered by the budget it releases (cleanup),
or grow a cluster around a uniformly random pivot: admissible -neighbors
join independently with probability y_pv, admissible +neighbors join by
correlated rounding, and the pivot's atom always joins.

All membership decisions are made at atom granularity so that no atom is
ever split (members of an atom carry identical lift values toward any
pivot, which the order-3 lifted LP enforces).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .core import ADMISSIBLE, Metric, PreclusteredInstance, SignedGraph
from .correlated import ConditionedMarginals, contract_to_representatives, measure_pairwise_error, rt_sample
from .lp import (
    LiftedSolution,
    build_pivot_lp,
    lifted_from_result,
    solve,
)
from .round_set import (
    BudgetLedger,
    RoundingParams,
    RoundingReport,
    SeparationFound,
    best_of_trials,
    decide_cluster,
    rounding_trial,
)

F_PLUS_CONSTANT = 1.515
MINUS_COEFFICIENT = 2.0


def pivot_budget(is_plus: bool, x: float) -> float:
    """Per-pair LP budget of the pivot scheme: f(x) x with
    f(x) = min(1.515 + x, 2) for a +pair, 2 (1 - x) for a -pair."""
    return min(F_PLUS_CONSTANT + x, 2.0) * x if is_plus else MINUS_COEFFICIENT * (1.0 - x)


def cleanup(
    remaining: Iterable[int],
    g: SignedGraph,
    pre: PreclusteredInstance,
    x: Metric,
    epsilon: float,
) -> frozenset[int] | None:
    """First atom (ascending minimum vertex) whose removal cost ALG_K is at
    most the budget Delta_K it would release; None if there is none."""
    rem = set(remaining)
    for atom in pre.all_atoms:
        if not atom <= rem:
            continue
        alg, delta = cleanup_quantities(atom, rem, g, pre, x, epsilon)
        if delta >= alg:
            return atom
    return None


def cleanup_quantities(
    atom: frozenset[int],
    rem: set[int],
    g: SignedGraph,
    pre: PreclusteredInstance,
    x: Metric,
    epsilon: float,
) -> tuple[float, float]:
    """(ALG_K, Delta_K) for removing ``atom`` as a cluster, both restricted
    to the remaining vertex set: the cost and the release (pair budgets plus
    epsilon per admissible pair) that :func:`decide_cluster` would charge."""
    ledger = BudgetLedger()
    decide_cluster(g, pre, x, ledger, rem, set(atom), pivot_budget, epsilon)
    return float(ledger.realized_total), ledger.lp_total + ledger.err_total


def _pivot_marginals(
    sol: LiftedSolution,
    p: int,
    pre: PreclusteredInstance,
    rem: set[int],
    g: SignedGraph,
) -> tuple[ConditionedMarginals, dict[int, list[int]], list[tuple[int, list[int], float]]]:
    """Split the pivot's admissible neighborhood into the correlated ground
    set (atoms with a +edge to p) and independently rounded atoms (only
    -edges to p).  Returns (marginals, rep -> members, independent list)."""
    kp = pre.atom_of(p)
    reps, groups = contract_to_representatives((v for v in rem if v not in kp), pre.atom_of)
    rt_groups: dict[int, list[int]] = {}
    indep: list[tuple[int, list[int], float]] = []
    for rep in reps:
        if pre.pair_class[p, rep] != ADMISSIBLE:
            continue  # y_pv = 0 by non-admissible pinning; never joins
        atom = groups[rep]
        y = sol.y_of((p, rep))
        if any(g.is_plus(p, w) for w in atom):
            rt_groups[rep] = atom
        elif y > 0.0:
            indep.append((rep, atom, y))
    marg = {rep: sol.y_of((p, rep)) for rep in rt_groups}
    m = ConditionedMarginals.clamped(list(rt_groups), marg, lambda a, b: sol.y_of((p, a, b)))
    return m, rt_groups, indep


def pivot_based_round(
    g: SignedGraph,
    pre: PreclusteredInstance,
    x: Metric,
    params: RoundingParams,
    rng: np.random.Generator,
) -> RoundingReport:
    """Best of ``params.trials`` pivot rounding runs.  The lifted LP is
    solved once; if it is infeasible, :class:`SeparationFound` is raised.
    Every non-cleanup iteration records the exact correlation error of its
    conditioned marginals as ``eps_r``."""
    lp = build_pivot_lp(g, pre, x)
    res = solve(lp)
    if res.status == "infeasible":
        raise SeparationFound(res.certificate)
    sol = lifted_from_result(lp, res)

    def draw(rem: set[int], rng: np.random.Generator) -> tuple[set[int], dict]:
        k = cleanup(rem, g, pre, x, params.epsilon)
        if k is not None:
            return set(k), {"cleanup": sorted(k), "size": len(k)}
        order = sorted(rem)
        p = order[int(rng.integers(0, len(order)))]
        m, rt_groups, indep = _pivot_marginals(sol, p, pre, rem, g)
        eps_r = measure_pairwise_error(m)
        chosen = rt_sample(m, rng)
        cluster = set(pre.atom_of(p) & rem)
        s_plus = 0
        for rep in chosen:
            cluster.update(rt_groups[rep])
            s_plus += len(rt_groups[rep])
        s_minus = 0
        for rep, members, y in indep:
            if rng.random() < y:
                cluster.update(members)
                s_minus += len(members)
        return cluster, {
            "pivot": p, "s_minus": s_minus, "s_plus": s_plus, "size": len(cluster), "eps_r": eps_r
        }

    return best_of_trials(
        params.trials,
        rng,
        lambda stream: rounding_trial(
            "pivot", g, pre, x, params.epsilon, draw, pivot_budget, stream
        ),
    )
