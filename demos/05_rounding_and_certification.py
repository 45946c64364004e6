#!/usr/bin/env python3
"""The two roundings, their budgets, the combination, and the certified
ratio analysis.

Set-based rounding repeatedly samples a cluster size s, a pivot weighted by
the size-stratified lift, and completes the cluster by correlated rounding;
it favors +pairs with large distance (per-pair bound 2x/(1+x)).  The pivot
scheme grows a cluster around a uniform pivot with a cleanup pass; it favors
-pairs (coefficient 2(1-x)) and +pairs with small distance (min(1.515+x,2)x).
Taking the cheaper of the two yields a per-edge factor below 1.7257, which
the verify module certifies numerically, along with the per-triangle
charging analysis behind the pivot bound.
"""

import numpy as np

from corrclust import (
    AgreementParams,
    PipelineConfig,
    RoundingParams,
    full_pipeline,
    generate_instance,
    pivot_based_round,
    precluster,
    set_based_round,
    solve_triangle_lp,
    verify_f_constant,
    verify_final_ratio,
)
from corrclust.combine import combined_edge_bounds
from corrclust.round_pivot import pivot_budget
from corrclust.round_set import lp_budget
from corrclust.verify import certify_triangle_kind

print(__doc__)

g = generate_instance("uniform_random", 10, None, seed=4)
pre = precluster(g, AgreementParams(0.1))
x, lp_cost = solve_triangle_lp(g, pre)
params = RoundingParams(epsilon=0.05, trials=8)

rep_set = set_based_round(g, pre, x, params, np.random.default_rng(4))
rep_piv = pivot_based_round(g, pre, x, params, np.random.default_rng(5))
print(f"uniform n=10: metric LP cost {lp_cost:.2f}")
print(f"  set-based   best of 8: cost {rep_set.cost}  "
      f"ledger {dict((k, round(v, 2)) for k, v in rep_set.ledger.totals().items())}  "
      f"eps_r {rep_set.measured_eps_r:.3f}")
print(f"  pivot-based best of 8: cost {rep_piv.cost}  "
      f"ledger {dict((k, round(v, 2)) for k, v in rep_piv.ledger.totals().items())}  "
      f"eps_r {rep_piv.measured_eps_r:.3f}")
print("  (eps_r: the largest exact pairwise error over every sampled iteration of every trial)")

# Per-edge budget comparison: where each scheme is strong.
print("\nper-+edge bounds at selected distances (set vs pivot):")
for xv in (0.0, 0.25, 0.485, 0.75, 1.0):
    print(f"  x={xv:5.3f}:  2x/(1+x) = {lp_budget(True, xv):.3f}   "
          f"min(1.515+x,2)x = {pivot_budget(True, xv):.3f}")
print("  (-edges: (1-x)/(1+x) for set vs 2(1-x) for pivot; each scheme covers "
      "the other's weak spot)")

edge = combined_edge_bounds(g, pre, x)
print(f"\ncombined 0.42/0.58 mix on this instance: per-edge check ok = {edge['per_edge_ok']}, "
      f"worst slack {edge['worst_edge_slack']:.2e}")

# The certified analysis: ratio scan, budget-constant inequality, and the
# per-triangle charging inequality on random feasible points.
ratio = verify_final_ratio(grid_step=1e-4)
print(f"\ncertified ratio: max combined +edge factor {ratio.max_value:.6f} "
      f"at x = {ratio.argmax:.3f}; -edge factor {ratio.minus_edge_value:.2f}")
fres = verify_f_constant()
print(f"budget constant 1.515: inequality holds on (0, 1/2], equality gap at 1/2 = "
      f"{fres.equality_gap_at_half:.1e}")
rng = np.random.default_rng(0)
for kind in ("---", "+--", "++-"):
    res = certify_triangle_kind(kind, 20_000, rng)
    print(f"triangle {kind}: {res['samples']} random feasible points, "
          f"failures {res['failures']}, worst margin {res['worst_margin']:.2e}")

# End to end, with the exact oracle watching.
print("\nfull pipeline on 5 seeds (n = 10, best of 16 trials):")
config = PipelineConfig(epsilon_q=0.1, epsilon=0.05, trials=16)
for seed in range(5):
    gg = generate_instance("uniform_random", 10, None, seed)
    rep = full_pipeline(gg, config, seed)
    o = rep["oracle"]
    print(f"  seed {seed}: cost {rep['cost']:2d}  opt {o['opt']:2d}  "
          f"ratio {o['ratio_vs_opt']:.3f}  bound holds: {o['holds_vs_opt']}")
