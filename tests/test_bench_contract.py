"""The benchmark's span recorder (bench/tracing.py) replaces corrclust names
where they are called.  These tests pin that contract from the program's
side: every wrapped name exists, every rounding-layer span fires on a small
pipeline call, each scheme's own call sites are the ones traced, and tracing
leaves the report unchanged."""

import importlib.util
from pathlib import Path

import corrclust.correlated as correlated
import corrclust.round_set as round_set
from corrclust.combine import PipelineConfig, full_pipeline
from corrclust.core import generate_instance

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

ROUNDING_SPANS = (
    "round_set.sample_s",
    "correlated.rt_sample_s",
    "correlated.eps_r_s",
    "lp.set.build_s",
    "lp.set.solve_s",
    "lp.set.extract_s",
    "lp.pivot.build_s",
    "lp.pivot.solve_s",
    "lp.pivot.extract_s",
    "round_pivot.cleanup_s",
)


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wrapped_names_exist():
    tracing = _tracing()
    for (module, attr) in tracing.WRAPPED:
        assert hasattr(module, attr), f"{module.__name__}.{attr}"


def test_traced_pipeline_records_every_rounding_layer():
    tracing = _tracing()
    # uniform n=6, seed 5: two non-cleanup pivots next to cleanups
    g = generate_instance("uniform_random", 6, None, 5)
    config = PipelineConfig(trials=1)
    plain = full_pipeline(g, config, 5)
    rec = tracing.Recorder()
    with tracing.traced(rec), rec.operation():
        traced = full_pipeline(g, config, 5)
    assert traced == plain
    assert round_set.rt_sample is correlated.rt_sample  # restored on exit

    counts = rec.span_counts()
    for name in ROUNDING_SPANS:
        assert counts[name] >= 1, name
    set_trace = plain["combined"]["set"]["trace"]
    pivot_trace = plain["combined"]["pivot"]["trace"]
    pivots = [t for t in pivot_trace if "pivot" in t]
    assert pivots, "the instance must reach a non-cleanup pivot"
    # one draw and one eps_r per set iteration and per non-cleanup pivot, so
    # both schemes' own call sites are the traced ones
    assert counts["round_set.sample_s"] == len(set_trace)
    assert counts["correlated.rt_sample_s"] == len(set_trace) + len(pivots)
    assert counts["correlated.eps_r_s"] == len(set_trace) + len(pivots)
    assert counts["round_pivot.cleanup_s"] == len(pivot_trace)
    assert rec.counts["lp.set.lookups"] == len(set_trace)
    assert rec.eps_r_max == plain["combined"]["measured_eps_r"]
    # brute_force_opt calls brute_force_opt_good inside corrclust.exact, so
    # that inner call is not a second traced oracle span
    assert counts["exact.opt_s"] == counts["exact.opt_good_s"] == 1
