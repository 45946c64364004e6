"""Command-line front end: run the pipeline, certify the analysis, sweep
benchmarks.  Exit codes: 0 success, 1 error (I/O, parsing, bad flags),
2 separation-certificate outcome.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, round_pivot
from .combine import PipelineConfig, full_pipeline
from .core import SignedGraph, generate_instance, parse_instance
from .verify import (
    RATIO_GRID_STEP,
    TRIANGLE_KINDS,
    TrianglePoint,
    case2c_quartic,
    certify_triangle_kind,
    verify_f_constant,
    verify_final_ratio,
    verify_triangle_case,
)

OUT_DIR_ENV = "CORRCLUST_OUT_DIR"

_GEN_ALIASES = {
    "uniform": "uniform_random",
    "uniform_random": "uniform_random",
    "planted": "planted_cliques",
    "planted_cliques": "planted_cliques",
    "adversarial": "adversarial_mix",
    "adversarial_mix": "adversarial_mix",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we reserve 2
        raise UsageError(message)


def _out_path(arg: str | None, default_name: str) -> Path:
    if arg:
        return Path(arg)
    base = Path(os.environ.get(OUT_DIR_ENV, "."))
    return base / default_name


def _load_graph(args, seed: int) -> tuple[SignedGraph, dict]:
    if args.instance and args.gen:
        raise UsageError("give either --instance or --gen, not both")
    if args.instance:
        text = Path(args.instance).read_text()
        g = parse_instance(text)
        return g, {"instance": args.instance}
    if not args.gen:
        raise UsageError("one of --instance or --gen is required")
    spec = args.gen
    kind_name, _, tail = spec.partition(":")
    kind = _GEN_ALIASES.get(kind_name)
    if kind is None:
        raise UsageError(f"unknown generator {kind_name!r}")
    if kind == "uniform_random":
        n = int(tail) if tail else args.n
        if n is None:
            raise UsageError("uniform generator needs uniform:<n> or --n")
        params: dict = {}
    else:
        if not tail:
            raise UsageError(f"{kind_name} generator needs sizes, e.g. {kind_name}:4,4")
        sizes = [int(t) for t in tail.split(",")]
        n = args.n if args.n is not None else sum(sizes)
        params = {"sizes": sizes, "noise": args.noise}
    g = generate_instance(kind, n, params, seed)
    return g, {"generator": {"kind": kind, "n": n, "params": params, "seed": seed}}


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _config(args) -> PipelineConfig:
    return PipelineConfig(
        epsilon_q=args.eps_q,
        epsilon=args.eps,
        trials=args.trials,
        oracle_limit=args.oracle_limit,
    )


def cmd_run(args) -> int:
    g, source = _load_graph(args, args.seed)
    report = full_pipeline(g, _config(args), args.seed)
    report["source"] = source
    out = _out_path(args.out, f"run_seed{args.seed}.json")
    _write_json(out, report)
    if report["outcome"] == "separation_certificate":
        print(f"separation certificate ({report['certificate']['provenance']}); report: {out}")
        return 2
    line = f"cost {report['cost']}  lp {report['lp_cost']:.4f}"
    if "oracle" in report:
        line += f"  opt {report['oracle']['opt']}  ratio {report['oracle']['ratio_vs_opt']:.4f}"
    print(line + f"  report: {out}")
    return 0


def cmd_verify(args) -> int:
    checks: list[tuple[str, bool, str]] = []
    ratio = verify_final_ratio(args.grid_step)
    checks.append(
        (
            "combined-ratio",
            ratio.ok and abs(ratio.argmax - (2 - round_pivot.F_PLUS_CONSTANT)) <= 2 * args.grid_step,
            f"max {ratio.max_value:.6f} at x = {ratio.argmax:.4f}, -edge {ratio.minus_edge_value}",
        )
    )
    fres = verify_f_constant()
    checks.append(
        (
            "plus-budget-constant",
            fres.ok and abs(fres.equality_gap_at_half) <= 1e-12,
            f"min gap near touch {fres.min_gap_near_touch:.6f}"
            + ("" if fres.ok else f"; violated by {fres.max_violation:.4f} at x = {fres.witness_x:.4f}"),
        )
    )
    allone = TrianglePoint(1.0, 1.0, 1.0, 1.0)
    lhs, rhs, ok = verify_triangle_case("---", allone)
    checks.append(("----equality-witness", ok and lhs == rhs == 3.0, f"lhs {lhs} rhs {rhs}"))
    case2c = TrianglePoint(0.5, 0.5, 0.0, 0.0)
    l2, r2, ok2 = verify_triangle_case("++-", case2c)
    q = float(case2c_quartic(0.5))
    checks.append(
        ("++--equality-witness", ok2 and abs(l2 - r2) <= 1e-12 and abs(q) <= 1e-12,
         f"lhs {l2} rhs {r2} quartic(1/2) {q}")
    )
    rng = np.random.default_rng(args.seed)
    for kind in TRIANGLE_KINDS:
        res = certify_triangle_kind(kind, args.samples, rng)
        label = f"triangle-{kind}"
        detail = f"{res['samples']} samples, worst margin {res['worst_margin']:.3e}"
        if res["failures"]:
            detail += f"; FAILED at point {res['worst_point']}"
        checks.append((label, res["failures"] == 0, detail))
    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failed += 0 if ok else 1
    return 1 if failed else 0


def cmd_bench(args) -> int:
    if args.count < 1:
        raise UsageError("--count must be at least 1")
    config = _config(args)
    rows = []
    for i in range(args.count):
        seed = args.seed + i
        g, _ = _load_graph(args, seed)
        rep = full_pipeline(g, config, seed)
        if rep["outcome"] != "clustering":
            print(f"seed {seed}: separation certificate; aborting sweep")
            return 2
        row = {
            "seed": seed,
            "n": g.n,
            "cost": rep["cost"],
            "lp_cost": round(rep["lp_cost"], 6),
            "ratio_vs_lp": round(rep["cost"] / rep["lp_cost"], 6) if rep["lp_cost"] > 1e-9 else "",
            "num_admissible": rep["preclustering"]["num_admissible"],
            "eps_r": round(rep["combined"]["measured_eps_r"], 6),
        }
        if "oracle" in rep:
            row["opt"] = rep["oracle"]["opt"]
            row["ratio_vs_opt"] = round(rep["oracle"]["ratio_vs_opt"], 6)
            row["within_bound"] = rep["oracle"]["holds_vs_opt"]
        rows.append(row)
    fields = list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    writer.writerows(rows)
    csv_text = buf.getvalue()
    out_csv = _out_path(args.out, "bench.csv")
    out_csv.parent.mkdir(parents=True, exist_ok=True)
    out_csv.write_text(csv_text)
    ratios = [r["ratio_vs_opt"] for r in rows if "ratio_vs_opt" in r and r.get("opt", 0) > 0]
    widths = {f: max(len(f), *(len(str(r.get(f, ""))) for r in rows)) for f in fields}
    print("  ".join(f.ljust(widths[f]) for f in fields))
    for r in rows:
        print("  ".join(str(r.get(f, "")).ljust(widths[f]) for f in fields))
    if ratios:
        print(f"max ratio_vs_opt {max(ratios):.4f}   mean {sum(ratios)/len(ratios):.4f}")
    print(f"csv: {out_csv}")
    return 0


def _build_parser() -> _Parser:
    p = _Parser(prog="corrclust", description=__doc__)
    p.add_argument("--version", action="version", version=f"corrclust {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    defaults = PipelineConfig()

    def common(sp):
        sp.add_argument("--eps-q", type=float, default=defaults.epsilon_q, help="preclustering agreement parameter")
        sp.add_argument("--eps", type=float, default=defaults.epsilon, help="rounding error budget per admissible pair")
        sp.add_argument("--trials", type=int, default=defaults.trials, help="best-of trial count per rounding")
        sp.add_argument("--seed", type=int, required=True, help="base seed (mandatory for reproducibility)")
        sp.add_argument("--oracle-limit", type=int, default=defaults.oracle_limit,
                        help="largest n the exact oracle is consulted for (at most 16)")
        sp.add_argument("--out", help=f"output path (default under ${OUT_DIR_ENV} or cwd)")

    run = sub.add_parser("run", help="run the full pipeline on one instance")
    run.add_argument("--instance", help="instance file path")
    run.add_argument("--gen", help="generator spec: uniform:<n> | planted:<s1,s2,...> | adversarial:<sizes>")
    run.add_argument("--n", type=int, help="vertex count (for generators that need it)")
    run.add_argument("--noise", type=float, default=0.0, help="sign-flip probability for planted generators")
    common(run)
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="certify the closed-form analysis")
    ver.add_argument("--grid-step", type=float, default=RATIO_GRID_STEP, help="grid step for the ratio scan, in (0, 1e-3]")
    ver.add_argument("--samples", type=int, default=100_000, help="random feasible points per triangle kind (at least 1)")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)

    ben = sub.add_parser("bench", help="seed sweep with ratio statistics")
    ben.add_argument("--gen", default="uniform", help="generator kind (uniform | planted:<sizes> | adversarial:<sizes>)")
    ben.add_argument("--n", type=int, help="vertex count (for generators that need it)")
    ben.add_argument("--count", type=int, default=10, help="number of seeds")
    ben.add_argument("--noise", type=float, default=0.0)
    common(ben)
    ben.set_defaults(func=cmd_bench, instance=None)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
