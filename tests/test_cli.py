import json

import pytest

from corrclust import combine, round_pivot
from corrclust.cli import _build_parser, _config, main
from corrclust.combine import PipelineConfig
from corrclust.core import SignedGraph, write_instance


def test_run_generated(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["run", "--gen", "planted:4,4", "--noise", "0", "--seed", "1",
                 "--trials", "4", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["cost"] == 0
    assert rep["oracle"]["ratio_vs_opt"] == 1.0
    assert "ratio 1.0000" in capsys.readouterr().out


def test_run_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["run", "--gen", "uniform:7", "--seed", "3", "--trials", "2"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_certificate_exits_2(tmp_path, capsys):
    out = tmp_path / "cert.json"
    args = ["run", "--gen", "uniform:7", "--seed", "140013", "--trials", "16"]
    assert main(args + ["--out", str(out)]) == 2
    rep = json.loads(out.read_text())
    assert rep["outcome"] == "separation_certificate"
    assert rep["certificate"]["provenance"] == "set-lp(n'=7,r=3)"
    assert "separation certificate (set-lp(n'=7,r=3))" in capsys.readouterr().out


def test_bench_certificate_aborts_sweep(tmp_path, capsys):
    args = ["bench", "--gen", "uniform:7", "--seed", "140013", "--count", "1", "--trials", "16",
            "--out", str(tmp_path / "sweep.csv")]
    assert main(args) == 2
    assert "seed 140013: separation certificate; aborting sweep" in capsys.readouterr().out


def test_run_instance_file(tmp_path):
    g = SignedGraph(8, frozenset())
    path = tmp_path / "empty8.txt"
    path.write_text(write_instance(g))
    out = tmp_path / "rep.json"
    code = main(["run", "--instance", str(path), "--seed", "0", "--trials", "1",
                 "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["cost"] == 0


def test_run_malformed_instance(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("n 3 default -\n0 1 +\n0 1 -\n")
    assert main(["run", "--instance", str(path), "--seed", "0"]) == 1
    assert "duplicate" in capsys.readouterr().err


def test_run_flag_validation(capsys):
    assert main(["run", "--seed", "0"]) == 1
    assert main(["run", "--gen", "nope:3", "--seed", "0"]) == 1
    assert main(["run", "--gen", "uniform", "--seed", "0"]) == 1  # n missing


def test_run_defaults_are_pipeline_config():
    args = _build_parser().parse_args(["run", "--gen", "uniform:5", "--seed", "0"])
    assert _config(args) == PipelineConfig()


def test_run_oracle_limit_above_16(tmp_path, capsys):
    # rejected with the flags, before any work, whatever the instance size
    out = tmp_path / "r.json"
    code = main(["run", "--gen", "uniform:5", "--seed", "1", "--trials", "1",
                 "--oracle-limit", "17", "--out", str(out)])
    assert code == 1
    assert "oracle limit" in capsys.readouterr().err
    assert not out.exists()


def test_run_bad_rounding_knobs(tmp_path, capsys, monkeypatch):
    # rejected with the flags, before the preclustering or any LP runs
    def ran(*args, **kwargs):
        raise AssertionError("the pipeline started")

    monkeypatch.setattr(combine, "precluster", ran)
    for flag, value, problem in (("--trials", "0", "trials must be at least 1"),
                                 ("--eps", "0", "epsilon must be positive")):
        out = tmp_path / "r.json"
        code = main(["run", "--gen", "uniform:5", "--seed", "0", flag, value, "--out", str(out)])
        assert code == 1
        assert problem in capsys.readouterr().err
        assert not out.exists()


def test_out_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CORRCLUST_OUT_DIR", str(tmp_path / "sub"))
    assert main(["run", "--gen", "uniform:6", "--seed", "2", "--trials", "1"]) == 0
    assert (tmp_path / "sub" / "run_seed2.json").exists()


def test_verify_passes(capsys):
    assert main(["verify", "--seed", "0", "--samples", "2000"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8 and "FAIL" not in out


def test_verify_catches_wrong_constant(monkeypatch, capsys):
    # the certifier reads the constant that pivot_budget charges
    monkeypatch.setattr(round_pivot, "F_PLUS_CONSTANT", 1.4)
    code = main(["verify", "--seed", "0", "--samples", "500"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL  plus-budget-constant" in out


def test_verify_has_no_constant_flag(capsys):
    assert main(["verify", "--seed", "0", "--samples", "500", "--f-constant", "1.4"]) == 1
    assert "unrecognized arguments: --f-constant" in capsys.readouterr().err


def test_verify_grid_step_usage_error(capsys):
    assert main(["verify", "--grid-step", "0.01"]) == 1
    assert "grid-step" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--grid-step", "0", "grid-step"),
    ("--grid-step", "-1e-4", "grid-step"),
    ("--samples", "0", "samples"),
])
def test_verify_bad_flag_values(flag, value, message, capsys):
    assert main(["verify", "--samples", "200", f"{flag}={value}"]) == 1
    assert message in capsys.readouterr().err


def test_bench(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--gen", "uniform", "--n", "6", "--count", "2",
                 "--seed", "5", "--trials", "2", "--out", str(out)])
    assert code == 0
    assert "max ratio_vs_opt" in capsys.readouterr().out
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 rows
    # deterministic re-run
    out2 = tmp_path / "bench2.csv"
    main(["bench", "--gen", "uniform", "--n", "6", "--count", "2",
          "--seed", "5", "--trials", "2", "--out", str(out2)])
    assert out.read_text() == out2.read_text()


def test_bench_rejects_bad_n(capsys):
    assert main(["bench", "--n", "0", "--seed", "0"]) == 1


def test_bench_generator_spec_matches_run(tmp_path, capsys):
    # sizes come from the spec, as in `run`
    out = tmp_path / "b.csv"
    for spec, n in (("uniform:5", "5"), ("planted:4,4", "8")):
        assert main(["bench", "--gen", spec, "--count", "1", "--seed", "0",
                     "--trials", "1", "--out", str(out)]) == 0
        header, row = out.read_text().strip().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["n"] == n
    assert main(["bench", "--gen", "planted", "--count", "1", "--seed", "0"]) == 1
    assert "needs sizes" in capsys.readouterr().err


def test_rank_flag_removed(capsys):
    assert main(["run", "--gen", "uniform:5", "--seed", "0", "--rank", "3"]) == 1
    assert "--rank" in capsys.readouterr().err
