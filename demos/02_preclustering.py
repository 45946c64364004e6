#!/usr/bin/env python3
"""Preclustering: atoms and admissible pairs.

Before any rounding, the instance is preprocessed into a *preclustered
instance*: disjoint vertex sets ("atoms") that near-optimal solutions keep
intact, plus a set of "admissible" pairs that are the only pairs a good
clustering may co-cluster across.  Everything else is forced apart.  The
pay-off: fractional uncertainty is confined to admissible pairs, whose
number is small relative to the optimum cost, which later absorbs the
correlated-rounding error.
"""

from corrclust import (
    AgreementParams,
    brute_force_opt_good,
    generate_instance,
    in_weak_agreement,
    precluster,
)
from corrclust.core import all_pairs

print(__doc__)

params = AgreementParams(epsilon_q=0.1)
print(f"parameters: epsilon_q = {params.epsilon_q} (agreement and lightness thresholds), "
      f"derived eps = {params.eps:.4f}, eps_a = {params.eps_a:.2e}")

# Two planted cliques with clean signs: agreement is perfect inside each
# clique, so the cliques come out exactly as atoms.
g = generate_instance("planted_cliques", 12, {"sizes": [5, 7], "noise": 0.0}, seed=0)
pre = precluster(g, params)
print("\nplanted 5+7, noise 0:")
print("  atoms:", [sorted(a) for a in pre.proper_atoms])
print("  admissible pairs:", sorted(pre.adm) or "none (cliques have no common cross neighbors)")

# Weak agreement is the sparsification test: symmetric difference of the
# (self-loop-inclusive) +neighborhoods against a fraction of the larger one.
u, v, w = 0, 1, 5
print(f"\n  agreement inside a clique ({u},{v}):", in_weak_agreement(g, u, v, 1, params.epsilon_q))
print(f"  agreement across cliques ({u},{w}):  ", in_weak_agreement(g, u, w, 1, params.epsilon_q))

# With noise the picture is softer: atoms can shrink or dissolve, and
# genuinely ambiguous pairs become admissible.
noisy = generate_instance("uniform_random", 12, None, seed=3)
pre_n = precluster(noisy, params)
counts = {"atomic": 0, "admissible": 0, "non_admissible": 0}
for (a, b) in all_pairs(12):
    counts[pre_n.classify_pair(a, b)] += 1
print("\nuniform n=12: pair classes", counts)

# Structural guarantees that hold on every output (checked exhaustively in
# the test suite): the admissible+atomic degree of a vertex stays within
# 2/eps_q^3 of its +degree, and admissible or atomic pairs are
# degree-similar within 2/eps_q.
worst = 0.0
for x in range(noisy.n):
    d_struct = pre_n.d_adm(x) + len(pre_n.atom_of(x)) - 1
    worst = max(worst, d_struct / noisy.degree(x))
print(f"  max (admissible+atomic degree) / +degree: {worst:.2f} "
      f"(bound {2 / params.epsilon_q**3:.0f})")

# The other half of the story: the cost of the best *good* clustering is
# bounded below in terms of |E_adm| in the tiny-parameter regime.
tiny = AgreementParams(1e-9)
pre_t = precluster(noisy, tiny)
_, opt_good = brute_force_opt_good(noisy, pre_t)
print(f"\ntiny-parameter regime: opt over good clusterings = {opt_good}, "
      f"(eps_q^6/2)|E_adm| = {tiny.eps_a * len(pre_t.adm):.2e}  (lower bound holds)")
