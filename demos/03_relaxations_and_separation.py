#!/usr/bin/env python3
"""The three LP relaxations and the separation machinery.

The pipeline solves a plain metric LP for distances x, then tries to extend
x with lifted set variables: a size-stratified layer (for set-based
rounding) and a single layer with triangle constraints (for pivot-based
rounding).  Either extension can fail; a failure is not an error but a
proof, in the form of a hyperplane separating x from every good clustering,
that x was not an honest convex combination of good clusterings.
"""

from corrclust import (
    AgreementParams,
    precluster,
    build_pivot_lp,
    build_set_lp,
    generate_instance,
    solve,
    solve_triangle_lp,
)
from corrclust.core import Clustering, Metric, all_pairs, trivial_preclustering, SignedGraph
from corrclust.lp import lifted_from_result, write_lp_text

print(__doc__)

# Metric LP: triangle inequalities plus the preclustering pins.
g = generate_instance("uniform_random", 8, None, seed=3)
pre = precluster(g, AgreementParams(0.1))
x, lp_cost = solve_triangle_lp(g, pre)
frac = sum(1 for p in all_pairs(8) if 1e-9 < x.values[p] < 1 - 1e-9)
print(f"metric LP on uniform n=8: cost {lp_cost:.3f}, {frac} fractional pairs")

# Lifted feasibility extensions.
set_lp = build_set_lp(range(8), pre, x, epsilon=0.05)
res = solve(set_lp)
print(f"set lift:   {set_lp.num_rows} rows, {set_lp.num_vars} vars -> {res.status}")
pivot_lp = build_pivot_lp(g, pre, x)
res_p = solve(pivot_lp)
print(f"pivot lift: {pivot_lp.num_rows} rows, {pivot_lp.num_vars} vars -> {res_p.status}")

sol = lifted_from_result(set_lp, res)
print(f"  cluster-count variable y_empty = {sol.y0:.3f} "
      "(every vertex is clustered with probability 1/y_empty per draw)")

# A dump of the first few rows, for debugging by eye.
print("\nfirst rows of the pivot lift, human-readable:")
for line in write_lp_text(pivot_lp).splitlines()[1:5]:
    print("   ", line)

# Now a metric that is NOT a mixture of clusterings: it violates the
# triangle inequality, so the lifted extension is infeasible, and solve
# returns a separating hyperplane, built from the dual ray, with that result.
g3 = SignedGraph(3, frozenset(all_pairs(3)))
bad = Metric(3, {(0, 1): 0.0, (0, 2): 0.0, (1, 2): 1.0})
lp_bad = build_pivot_lp(g3, trivial_preclustering(3), bad)
res_bad = solve(lp_bad)
cert = res_bad.certificate
print("\ntriangle-violating metric (x01 = x02 = 0, x12 = 1):", res_bad.status)
print("  recovered plane:", {k: round(v, 3) for k, v in cert.w.items()}, ">=", round(cert.b, 3))
print("  value at the rejected x:", round(cert.rejected_value, 3), "(strictly below)")
for labels in ([0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [0, 1, 2]):
    m = Metric.from_clustering(Clustering.from_assignment(labels))
    assert cert.evaluate(m) >= cert.b - 1e-9
print("  every clustering metric satisfies the plane (checked all 5 partitions)")
