#!/usr/bin/env python3
"""Closed-loop benchmark of corrclust's end-to-end pipeline.

    python3 bench/run.py --workload planted_n12_best4 --seed 1 --seconds 50 --trace 0

One process, one client, one ``full_pipeline`` call at a time.  Instances come
from ``corrclust.core.generate_instance`` with seeds derived from ``--seed``.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs every call once untraced and once traced and reports per-layer metrics.
Every call's report is checked; a failed check is counted, not fatal.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See bench/README.md.
"""

import os

# One client and no extra threads: pin BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_PROBES = 5


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="workload seed (>= 0); required so claims can be re-checked")
    ap.add_argument("--seconds", type=float, required=True, help="measurement budget in seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help="only import, generate and warm up, then exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def import_program():
    """Import corrclust from this checkout's src/, never from elsewhere."""
    if not (SRC / "corrclust" / "__init__.py").is_file():
        sys.exit(f"bench: no corrclust sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import corrclust

    if Path(corrclust.__file__).resolve().parent != SRC / "corrclust":
        sys.exit(f"bench: corrclust imported from {corrclust.__file__}, expected {SRC}")


@dataclass
class Op:
    """One pipeline call: which instance, how long, and what came back."""

    index: int
    seconds: float
    report: dict | None
    digest: str
    problems: list[str]


def check_report(g, report: dict) -> list[str]:
    """Output checks on one report; returns the failed ones."""
    if report.get("outcome") != "clustering":
        return [f"outcome {report.get('outcome')!r}"]
    problems = []
    if not report["guarantee"]["holds_vs_lp"]:
        problems.append("guarantee.holds_vs_lp is false")
    oracle = report.get("oracle")
    if oracle is not None and not oracle["holds_vs_opt"]:
        problems.append("oracle.holds_vs_opt is false")
    for scheme in ("set", "pivot"):
        part = report["combined"][scheme]
        if part["ledger"]["realized_cost"] != part["cost"]:
            problems.append(f"{scheme} ledger realized_cost {part['ledger']['realized_cost']} != cost {part['cost']}")
    labels = report["combined"]["clustering"]
    if len(labels) != g.n:
        problems.append(f"clustering has {len(labels)} labels for n = {g.n}")
    else:
        disagreements = sum(
            ((u, v) in g.plus) != (labels[u] == labels[v]) for u in range(g.n) for v in range(u + 1, g.n)
        )
        if disagreements != report["cost"]:
            problems.append(f"reported cost {report['cost']} != recounted {disagreements}")
    return problems


def call(index: int, seed: int, g, config, around=contextlib.nullcontext) -> Op:
    """One timed ``full_pipeline`` call inside the context ``around()``; the
    output checks run after the clock stops."""
    from corrclust.combine import full_pipeline

    t0 = time.perf_counter()
    try:
        with around():
            report = full_pipeline(g, config, seed)
    except Exception:  # a failing call is counted, and the run goes on
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return Op(index, seconds, None, "", ["raised"])
    seconds = time.perf_counter() - t0
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    return Op(index, seconds, report, digest, check_report(g, report))


def setup(workload, seed: int):
    """Instance generation plus one small warm-up call (lazy HiGHS/scipy init)."""
    from workloads import WARMUP

    pool = workload.generate(seed, workload.instances)
    [(wseed, wg)] = WARMUP.generate(0, 1)  # the same for every seed
    call(0, wseed, wg, WARMUP.config)
    return pool


def measure_setup(args) -> list[float]:
    """Wall time of cold set-ups, each in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        out.append(time.perf_counter() - t0)
    return out


def closed_loop(pool, seconds: float, min_steps: int, step) -> None:
    """Call ``step(index, seed, graph)`` on instances 0, 1, 2, ... of the
    pool (cycling) until ``seconds`` have passed and at least ``min_steps``
    steps ran."""
    start = time.perf_counter()
    i = 0
    while i < min_steps or time.perf_counter() - start < seconds:
        index = i % len(pool)
        step(index, *pool[index])
        i += 1


def check_repeats(ops: list[Op], reference: dict[int, str]) -> None:
    """Every call on an instance must return the byte-identical report."""
    for op in ops:
        if op.digest:
            ref = reference.setdefault(op.index, op.digest)
            if op.digest != ref:
                op.problems.append("report digest differs from another call on the same instance")


def end_to_end(workload, pool, seconds: float, setup_s: list[float]):
    ops: list[Op] = []
    config = workload.config
    q = len(pool)
    closed_loop(pool, seconds, q, lambda i, s, g: ops.append(call(i, s, g, config)))
    check_repeats(ops, {})
    # Every instance of the fixed pool ran at least once; weigh each equally,
    # so a faster commit is timed on the same inputs as a slower one.
    per_instance: list[list[float]] = [[] for _ in pool]
    for op in ops:
        per_instance[op.index].append(op.seconds)
    instance_s = [statistics.mean(times) for times in per_instance]
    good = [op.report for op in ops[:q] if not op.problems]
    lp_ratios = [r["cost"] / r["lp_cost"] for r in good if r["lp_cost"] > 1e-9]
    opt_ratios = [r["oracle"]["ratio_vs_opt"] for r in good if "oracle" in r]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup_s), "s", f"median of {len(setup_s)} cold set-ups"),
        "instances_per_s": (
            q / sum(instance_s), "1/s", f"{q} instances at n = {workload.n}, {len(ops)} calls"),
        "peak_rss_mb": (rss_mb, "MB", "max resident set size of the measuring process"),
        "ratio_vs_lp_mean": (
            statistics.mean(lp_ratios) if lp_ratios else 1.0,
            "ratio",
            f"mean cost/lp_cost over {len(lp_ratios)} of {q} instances (lp_cost > 0)",
        ),
    }
    extra = {
        "instance_s_p50": (statistics.median(instance_s), "s", f"median over {q} instances"),
    }
    if opt_ratios:
        extra["ratio_vs_opt_mean"] = (
            statistics.mean(opt_ratios), "ratio", f"mean over {len(opt_ratios)} of {q} instances")
    return ops, metrics, extra


def per_layer(workload, pool, seconds: float):
    from tracing import SPAN_NAMES, Recorder, traced

    rec = Recorder()
    plain: list[Op] = []
    spanned: list[Op] = []
    config = workload.config

    def step(i, s, g):
        def traced_call():
            with traced(rec):
                spanned.append(call(i, s, g, config, rec.operation))

        # alternate which side goes first, so per-instance warm-up cancels out
        if len(plain) % 2:
            traced_call()
            plain.append(call(i, s, g, config))
        else:
            plain.append(call(i, s, g, config))
            traced_call()

    closed_loop(pool, seconds, 1, step)
    reference: dict[int, str] = {}
    check_repeats(plain, reference)
    check_repeats(spanned, reference)  # traced reports must match untraced ones

    calls = rec.ops
    self_s = rec.self_times()
    spans = rec.span_counts()
    counts = rec.counts
    untraced_s = sum(op.seconds for op in plain)
    traced_s = sum(op.seconds for op in spanned)
    accounted_s = sum(self_s.values())
    root_s = rec.root_seconds()

    def per_call(x):
        return x / calls

    def ratio(a, b):
        return a / b if b else 0.0

    set_solves = spans["lp.set.solve_s"]
    pivot_solves = spans["lp.pivot.solve_s"]
    metrics = {name: (per_call(self_s[name]), "s") for name in SPAN_NAMES}
    metrics.update({
        "lp.set.solves": (per_call(set_solves), "count"),
        "lp.set.lookups": (per_call(counts["lp.set.lookups"]), "count"),
        "lp.set.cache_hit_ratio": (1.0 - ratio(set_solves, counts["lp.set.lookups"]), "ratio"),
        "lp.set.cols_mean": (ratio(counts["lp.set.cols"], set_solves), "count"),
        "lp.set.rows_mean": (ratio(counts["lp.set.rows"], set_solves), "count"),
        "lp.set.nnz_mean": (ratio(counts["lp.set.nnz"], set_solves), "count"),
        "lp.set.pinned_frac": (ratio(counts["lp.set.pinned"], counts["lp.set.cols"]), "ratio"),
        "lp.set.infeasible": (per_call(counts["lp.set.infeasible"]), "count"),
        "lp.pivot.cols": (ratio(counts["lp.pivot.cols"], pivot_solves), "count"),
        "lp.pivot.rows": (ratio(counts["lp.pivot.rows"], pivot_solves), "count"),
        "correlated.rt_sample_calls": (per_call(spans["correlated.rt_sample_s"]), "count"),
        "correlated.eps_r_calls": (per_call(spans["correlated.eps_r_s"]), "count"),
        "correlated.eps_r_max": (rec.eps_r_max, "ratio"),
        "round_set.iterations": (per_call(spans["round_set.sample_s"]), "count"),
        "round_pivot.cleanup_hit_ratio": (
            ratio(counts["round_pivot.cleanup_hits"], spans["round_pivot.cleanup_s"]), "ratio"),
        "round_pivot.iterations": (per_call(spans["round_pivot.cleanup_s"]), "count"),
        "trace_overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
    })
    problems = []
    if abs(accounted_s - root_s) > 1e-6 * root_s:
        problems.append(f"self times sum to {accounted_s:.6f} s, root spans to {root_s:.6f} s")
    shares = {name: self_s[name] / accounted_s for name in SPAN_NAMES}
    notes = {
        "calls": f"{calls} traced and {len(plain)} untraced calls",
        "wall": f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, root spans {root_s:.3f} s, "
        f"self-time sum {accounted_s:.3f} s",
        "shares": ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])),
    }
    return plain + spanned, metrics, notes, problems


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup(workload, args.seed)
        return 0
    setup_s = [] if args.trace else measure_setup(args)
    pool = setup(workload, args.seed)

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    problems: list[str] = []
    if args.trace:
        ops, metrics, notes, problems = per_layer(workload, pool, args.seconds)
        for key, text in notes.items():
            print(f"{key}: {text}")
        rows = [(name, value, unit, "") for name, (value, unit) in metrics.items()]
    else:
        ops, metrics, extra = end_to_end(workload, pool, args.seconds, setup_s)
        rows = [(name, value, unit, note) for name, (value, unit, note) in {**metrics, **extra}.items()]
    failed = [op for op in ops if op.problems]
    rows.append(("failed_frac", len(failed) / len(ops), "ratio", f"{len(failed)} of {len(ops)} calls"))
    for name, value, unit, note in rows:
        print(f"  {name:<30} {value:>14.6g} {unit:<6} {note}")
    for op in failed:
        print(f"failed: instance {op.index}: {'; '.join(op.problems)}", file=sys.stderr)
    for p in problems:
        print(f"trace check failed: {p}", file=sys.stderr)
    result = {
        "correct": not failed and not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": m[0], "unit": m[1]} for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
