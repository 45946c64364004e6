#!/usr/bin/env python3
"""Signed graphs, clusterings, disagreement costs, and the exact oracles.

A correlation-clustering instance is a complete graph whose pairs are
labelled + (similar) or - (dissimilar).  A clustering pays one unit for
every -pair it keeps together and every +pair it splits.  For small n we
can afford exact optima, which anchor every approximation claim later on.
"""

import numpy as np

from corrclust import (
    Clustering,
    SignedGraph,
    brute_force_opt,
    clustering_cost,
    fractional_cost,
    generate_instance,
    naive_opt,
    parse_instance,
    write_instance,
)
from corrclust.core import Metric

print(__doc__)

# A tiny instance by hand: +edges 01 and 02, -edge 12.
g = SignedGraph(3, frozenset({(0, 1), (0, 2)}))
together = Clustering.from_sets(3, [[0, 1, 2]])
apart = Clustering.from_sets(3, [[0], [1], [2]])
print("++- triangle:")
print("  one cluster pays the internal -edge:   cost", clustering_cost(g, together))
print("  singletons pay both +edges:            cost", clustering_cost(g, apart))

# The exact oracles: a subset dynamic program, cross-checked by plain
# enumeration of set partitions.
c_opt, opt = brute_force_opt(g)
print("  optimum:", opt, "via", c_opt.assignment, "| naive enumeration agrees:", naive_opt(g) == opt)

# Fractional relaxations replace the 0/1 "together or not" with distances
# x in [0,1]; the objective generalizes the integral cost.  A metric is one
# read-only, symmetric n x n table with a zero diagonal: x_uv = table[u, v].
x_zero = Metric(3, np.zeros((3, 3)))
print("  fractional cost at x = 0 (everything together):", fractional_cost(g, x_zero))

# Generators: planted cliques (optionally noisy), uniform random signs, and
# a mixed regime.  All are deterministic in (kind, n, params, seed).
print("\nGenerators:")
planted = generate_instance("planted_cliques", 10, {"sizes": [5, 5], "noise": 0.0}, seed=0)
print("  planted 5+5, noise 0: opt =", brute_force_opt(planted)[1], "(the planted cut)")
noisy = generate_instance("planted_cliques", 10, {"sizes": [5, 5], "noise": 0.1}, seed=0)
print("  planted 5+5, noise 0.1: opt =", brute_force_opt(noisy)[1])
rnd = generate_instance("uniform_random", 8, None, seed=7)
print("  uniform n=8 seed 7: opt =", brute_force_opt(rnd)[1])

# Instances round-trip through a plain text format: a default sign plus the
# overriding pairs.
text = write_instance(g)
print("\nText form of the ++- triangle:")
print("  " + text.replace("\n", "\n  ").rstrip())
assert parse_instance(text) == g

# The exact optimum is invariant under vertex relabeling.
rng = np.random.default_rng(1)
perm = rng.permutation(8)
relabeled = SignedGraph(
    8,
    frozenset(tuple(sorted((int(perm[u]), int(perm[v])))) for (u, v) in rnd.plus),
)
print("\nRelabeling invariance:", brute_force_opt(rnd)[1] == brute_force_opt(relabeled)[1])
