"""Benchmark workloads: generator, size, rounding trials and oracle limit.

Why each workload exists, and why the sizes are smaller than the
acceptance-suite working point, is written in bench/README.md.  Every
workload uses epsilon_q=0.1, epsilon=0.05 and r=3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from corrclust.combine import PipelineConfig
from corrclust.core import SignedGraph, generate_instance


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    n: int
    params: dict = field(default_factory=dict)
    trials: int = 1
    oracle_limit: int = 16
    instances: int = 1  # fixed pool that every end-to-end metric covers

    @property
    def config(self) -> PipelineConfig:
        return PipelineConfig(
            epsilon_q=0.1, epsilon=0.05, r=3, trials=self.trials, oracle_limit=self.oracle_limit
        )

    def generate(self, seed: int, count: int) -> list[tuple[int, SignedGraph]]:
        """Instance i of workload seed s uses generator and pipeline seed
        s * 10_000 + i, so different workload seeds never share an instance."""
        if count > 10_000:
            raise ValueError("at most 10,000 instances per workload seed")
        seeds = [seed * 10_000 + i for i in range(count)]
        return [(s, generate_instance(self.kind, self.n, self.params, s)) for s in seeds]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "planted_n12_best4",
            "planted_cliques",
            12,
            {"sizes": [4, 4, 4], "noise": 0.02},
            trials=4,
            instances=36,
        ),
        Workload(
            "adversarial_n13_best2",
            "adversarial_mix",
            13,
            {"sizes": [5, 5], "noise": 0.02},
            trials=2,
            oracle_limit=12,
            instances=22,
        ),
    )
}

# Small instance whose pipeline call absorbs lazy HiGHS/scipy initialisation.
WARMUP = Workload("warmup", "uniform_random", 6)
