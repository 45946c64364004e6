"""Outside-in span recorder for the traced benchmark run.

The recorder wraps corrclust's public names where they are called, by
replacing the module attributes that ``corrclust.combine``,
``corrclust.round_set`` and ``corrclust.round_pivot`` look up at call time.
Nothing under ``src/`` is edited; ``traced()`` restores every attribute on
exit.  Each span is named after the per-layer metric it feeds, so a layer's
time is the summed self time of its spans.

Spans are kept in memory as ``(op, index, parent, name, start, end)`` tuples
and reduced after the run.  Counters that need the returned objects (LP
sizes, cache lookups, result statuses) are read right after the wrapped call
returns; their cost lands in the caller's self time and is part of the
measured tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

import numpy as np

import corrclust.combine as combine
import corrclust.round_pivot as round_pivot
import corrclust.round_set as round_set

ROOT_SPAN = "combine.self_s"

# (module, attribute looked up at the call site) -> span name
WRAPPED = {
    (combine, "precluster"): "precluster.s",
    (combine, "solve_triangle_lp"): "lp.triangle.s",
    (combine, "set_based_round"): "round_set.self_s",
    (combine, "pivot_based_round"): "round_pivot.self_s",
    (combine, "combined_edge_bounds"): "combine.edge_bounds_s",
    (combine, "brute_force_opt"): "exact.opt_s",
    (combine, "brute_force_opt_good"): "exact.opt_good_s",
    (round_set, "build_set_lp"): "lp.set.build_s",
    (round_set, "solve"): "lp.set.solve_s",
    (round_set, "lifted_from_result"): "lp.set.extract_s",
    (round_set, "set_based_cstr_clst"): "round_set.sample_s",
    (round_set, "rt_sample"): "correlated.rt_sample_s",
    (round_set, "measure_pairwise_error"): "correlated.eps_r_s",
    (round_pivot, "build_pivot_lp"): "lp.pivot.build_s",
    (round_pivot, "solve"): "lp.pivot.solve_s",
    (round_pivot, "lifted_from_result"): "lp.pivot.extract_s",
    (round_pivot, "rt_sample"): "correlated.rt_sample_s",
    (round_pivot, "measure_pairwise_error"): "correlated.eps_r_s",
    (round_pivot, "cleanup"): "round_pivot.cleanup_s",
}

SPAN_NAMES = sorted(set(WRAPPED.values()) | {ROOT_SPAN})


class Recorder:
    """In-memory spans plus counters, one operation (pipeline call) at a time."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self.eps_r_max = 0.0
        self.ops = 0
        self._stack: list[list] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1][1] if self._stack else -1
        span = [self.ops, len(self.spans) + len(self._stack), parent, name, time.perf_counter()]
        self._stack.append(span)
        return span

    def _close(self, span: list) -> None:
        end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span[3]} closed out of order")
        self.spans.append((*span, end))

    @contextlib.contextmanager
    def operation(self):
        """Root span around one pipeline call; its spans share one op id."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        span = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(span)
            self.ops += 1

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(out, args)
            return out

        return wrapper

    # -- counters read from returned objects ---------------------------------

    def _after_set_solve(self, res, args) -> None:
        self._count_lp("lp.set", args[0])
        if res.status == "infeasible":
            self.counts["lp.set.infeasible"] += 1

    def _after_pivot_solve(self, res, args) -> None:
        self._count_lp("lp.pivot", args[0])

    def _count_lp(self, prefix: str, lp) -> None:
        # solve() has assembled and cached the matrices, so this is cheap
        A, _P, _rhs, _senses, lb, ub = lp.matrices()
        self.counts[f"{prefix}.cols"] += lp.num_vars
        self.counts[f"{prefix}.rows"] += lp.num_rows
        self.counts[f"{prefix}.nnz"] += A.nnz
        self.counts[f"{prefix}.pinned"] += int(np.count_nonzero(lb == ub))

    def _after_eps_r(self, value, args) -> None:
        self.eps_r_max = max(self.eps_r_max, float(value))

    def _after_cleanup(self, atom, args) -> None:
        if atom is not None:
            self.counts["round_pivot.cleanup_hits"] += 1

    def _counting_cache(self):
        rec = self

        class CountingSolveCache(round_set.SolveCache):
            def get(self, key):
                rec.counts["lp.set.lookups"] += 1
                return super().get(key)

        return CountingSolveCache

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus child coverage.
        Spans of one thread nest, so children never overlap each other."""
        child_time: defaultdict[tuple[int, int], float] = defaultdict(float)
        for op, _idx, parent, _name, start, end in self.spans:
            if parent >= 0:
                child_time[(op, parent)] += end - start
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for op, idx, _parent, name, start, end in self.spans:
            out[name] += (end - start) - child_time[(op, idx)]
        return out

    def root_seconds(self) -> float:
        """Summed duration of the root spans, one per pipeline call."""
        return sum(end - start for _op, _idx, parent, _name, start, end in self.spans if parent < 0)

    def span_counts(self) -> Counter[str]:
        return Counter(s[3] for s in self.spans)


@contextlib.contextmanager
def traced(rec: Recorder):
    """Install the wrappers for the duration of the block."""
    after = {
        (round_set, "solve"): rec._after_set_solve,
        (round_pivot, "solve"): rec._after_pivot_solve,
        (round_set, "measure_pairwise_error"): rec._after_eps_r,
        (round_pivot, "measure_pairwise_error"): rec._after_eps_r,
        (round_pivot, "cleanup"): rec._after_cleanup,
    }
    saved = {}
    try:
        for (module, attr), name in WRAPPED.items():
            saved[(module, attr)] = getattr(module, attr)
            setattr(module, attr, rec.wrap(name, saved[(module, attr)], after.get((module, attr))))
        saved[(round_set, "SolveCache")] = round_set.SolveCache
        round_set.SolveCache = rec._counting_cache()
        yield rec
    finally:
        for (module, attr), original in saved.items():
            setattr(module, attr, original)
