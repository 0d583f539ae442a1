import argparse
import json
import os
import stat
import warnings

import numpy as np
import pytest

from gfl import cli
from gfl.cli import _write_json, build_parser, main
from gfl.errors import GflError
from gfl.losses import QuantileLoss
from gfl.simulate import ExperimentSpec
from gfl.solver import FusedLassoProblem, solve


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


_MEDIAN = {"kind": "quantile", "tau": 0.5}
_UNIFORM_MEDIAN = {"kind": "uniform", "scale": 1.0, "center_tau": 0.5}


def small_config(**over):
    cfg = {
        "experiment": "pointwise",
        "signal": {"values": [0.0, 2.0], "lengths": [16, 16]},
        "noise": {"kind": "gaussian", "scale": 1.0},
        "loss": {"kind": "square"},
        "lambda": {"rule": "sqrt_n_over_k"},
        "delta": 0.05,
        "replications": 10,
        "seed": 11,
        "monitor": "interior",
    }
    cfg.update(over)
    return cfg


class TestSolveCommand:
    def test_roundtrip(self, tmp_path):
        y = [0.0, 0.0, 10.0]
        inp = tmp_path / "y.csv"
        inp.write_text("\n".join(str(v) for v in y) + "\n")
        out = tmp_path / "out"
        rc = main(
            [
                "solve", "--input", str(inp), "--lambda", "1.0",
                "--loss", "quantile", "--tau", "0.5", "--out-dir", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "solution.csv").read_text().splitlines()
        assert lines[0].startswith("# version=")
        assert "config_hash=" in lines[0]
        assert lines[1] == "i,y,theta_hat,z"
        theta = [float(row.split(",")[2]) for row in lines[2:]]
        ref = solve(FusedLassoProblem(np.asarray(y), 1.0, QuantileLoss(0.5)))
        assert np.allclose(theta, ref.theta_hat)
        meta = json.loads((out / "solution.json").read_text())
        assert meta["kkt_residual"] <= 1e-9
        assert meta["version"] and meta["config_hash"]

    def test_quantile_large_n(self, tmp_path):
        rng = np.random.default_rng(0)
        y = np.linspace(0, 100, 140000) + 0.01 * rng.standard_normal(140000)
        inp = tmp_path / "ramp.csv"
        inp.write_text("\n".join(repr(float(v)) for v in y) + "\n")
        out = tmp_path / "out"
        rc = main(
            [
                "solve", "--input", str(inp), "--lambda", "1.0",
                "--loss", "quantile", "--tau", "0.5", "--out-dir", str(out),
            ]
        )
        assert rc == 0
        meta = json.loads((out / "solution.json").read_text())
        assert meta["kkt_residual"] <= 1e-12

    def test_bad_input_exit_2(self, tmp_path):
        inp = tmp_path / "y.csv"
        inp.write_text("1.0\nnot-a-number\n")
        assert main(["solve", "--input", str(inp), "--lambda", "1.0"]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["solve", "--input", str(tmp_path / "absent.csv"), "--lambda", "1"]) == 2

    def test_square_loss_with_tau_exit_2(self, tmp_path, capsys):
        inp = tmp_path / "y.csv"
        inp.write_text("0.0\n1.0\n")
        out = tmp_path / "out"
        rc = main(
            [
                "solve", "--input", str(inp), "--lambda", "1.0",
                "--loss", "square", "--tau", "0.3", "--out-dir", str(out),
            ]
        )
        assert rc == 2
        assert "square loss takes no tau" in capsys.readouterr().err
        assert not out.exists()

    def test_beyond_float64_scale_exit_2(self, tmp_path, capsys):
        """|y| near the float64 limit: exit 2 with a message, no numpy
        warning, and no solution.json holding Infinity."""
        inp = tmp_path / "y.csv"
        inp.write_text("1e308\n-1e308\n1e308\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["solve", "--input", str(inp), "--lambda", "1", "--out-dir", str(out)])
        assert rc == 2
        assert "float64" in capsys.readouterr().err
        assert not out.exists()


def test_non_finite_json_is_not_written(tmp_path):
    path = tmp_path / "x.json"
    for bad in (float("nan"), float("inf")):
        with pytest.raises(GflError, match="not writing"):
            _write_json(str(path), {"value": bad}, "hash")
        assert not path.exists()


class TestBoundsCommand:
    def test_csv_format(self, tmp_path):
        out = tmp_path / "b"
        rc = main(
            [
                "bounds",
                "--signal-values", "0,1",
                "--signal-lengths", "8,8",
                "--sigma", "1.0",
                "--delta", "0.05",
                "--lambda", "4.0",
                "--growth-L", "0.5",
                "--out-dir", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "bounds.csv").read_text().splitlines()
        assert lines[1] == "i,k,d,B,B_improved,B_quantile,applicable"
        assert len(lines) == 2 + 16
        first = lines[2].split(",")
        assert first[0] == "1" and first[1] == "1" and first[2] == "1"
        assert float(first[3]) > 0
        meta = json.loads((out / "bounds.json").read_text())
        assert meta["n"] == 16 and meta["K"] == 2

    def test_delta_out_of_range_exit_3(self, tmp_path):
        rc = main(
            [
                "bounds",
                "--signal-values", "0,1",
                "--signal-lengths", "8,8",
                "--delta", "0.5",
                "--lambda", "4.0",
                "--out-dir", str(tmp_path / "b"),
            ]
        )
        assert rc == 3

    def test_bad_signal_exit_2(self, tmp_path):
        rc = main(
            [
                "bounds",
                "--signal-values", "0,zero",
                "--signal-lengths", "8,8",
                "--delta", "0.05",
                "--lambda", "4.0",
                "--out-dir", str(tmp_path / "b"),
            ]
        )
        assert rc == 2


    @pytest.mark.parametrize("L", ["inf", "0", "nan"])
    def test_growth_L_not_positive_finite_exit_2(self, tmp_path, L):
        rc = main(
            [
                "bounds",
                "--signal-values", "0,1",
                "--signal-lengths", "8,8",
                "--delta", "0.05",
                "--lambda", "4.0",
                "--growth-L", L,
                "--out-dir", str(tmp_path / "b"),
            ]
        )
        assert rc == 2


class TestLilCommand:
    def test_outputs(self, tmp_path):
        out = tmp_path / "lil"
        rc = main(
            [
                "lil", "--sigma", "1.0", "--delta", "0.1",
                "--horizon", "256", "--paths", "50", "--seed", "3",
                "--out-dir", str(out),
            ]
        )
        assert rc == 0
        meta = json.loads((out / "lil.json").read_text())
        assert meta["within_bound"] is True
        lines = (out / "lil.csv").read_text().splitlines()
        assert len(lines) > 3


    def test_negative_seed_exit_2(self, tmp_path, capsys):
        rc = main(
            [
                "lil", "--delta", "0.1", "--horizon", "16", "--paths", "4",
                "--seed", "-1", "--out-dir", str(tmp_path / "lil"),
            ]
        )
        assert rc == 2
        assert "seed must be a nonnegative integer" in capsys.readouterr().err


class TestSimulateCommand:
    def test_byte_determinism(self, tmp_path):
        cfg = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out-dir", str(out2)]) == 0
        for name in os.listdir(out1):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--seed", "999", "--out-dir", str(out2)]) == 0
        assert (out1 / "summary.json").read_bytes() != (out2 / "summary.json").read_bytes()

    def test_unknown_key_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, small_config(extra_knob=1))
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "over",
        [
            {"experiment": "rate_sweep", "d_grid": [4]},
            {"experiment": "rate_sweep", "d_grid": [4, 4]},
            {"experiment": "rate_sweep", "d_grid": [4, 8.5]},
            {"improved": "no"},
            {"seed": 1.5},
            {"replications": 1.5},
            {"replications": True},
            {"loss": "square"},
            {"lambda": "sqrt_n_over_k"},
            {"delta": "abc"},
            {"growth_L": "x"},
            {"experiment": "lambda_sweep", "lambda_grid": [1.0, "a"]},
            {"experiment": "rate_sweep", "d_grid": [2, 4], "n_sweep": [1024, "b"]},
            {"experiment": "rate_sweep", "d_grid": 5},
            {"experiment": "rate_sweep", "d_grid": [2, 4], "n_sweep": [1024.7, 2048]},
            {"monitor": [1.5, 20]},
            {"signal": {"values": [0.0, 2.0], "lengths": [16.7, 16]}},
            {"lambda": {"rule": "fixed", "value": "x"}},
            {"loss": {"kind": "quantile", "tau": "0.5"}},
            {"noise": {"kind": "gaussian", "scale": "1.0"}},
            {"noise": {"kind": "gaussian", "scale": True}},
            {"signal": {"values": ["0", 2.0], "lengths": [16, 16]}},
            {"experiment": "lambda_sweep", "noise": _UNIFORM_MEDIAN, "loss": _MEDIAN},
            {"experiment": "sse", "lambda": {"rule": "fixed", "value": 0}},
            {"experiment": "lambda_sweep", "lambda_grid": [0, 1, 4]},
            {"experiment": "rate_sweep", "n_sweep": [3, 64]},
            {
                "noise": {"kind": "gaussian", "scale": 1.0, "center_tau": 0.5},
                "loss": {"kind": "quantile", "tau": 0.3},
            },
            {
                "experiment": "rate_sweep",
                "noise": {"kind": "gaussian", "scale": 1.0, "center_tau": 0.2},
                "d_grid": [2, 4],
            },
            {"noise": {"kind": "gaussian", "scale": 1.0}, "loss": _MEDIAN},
            {
                "experiment": "sse",
                "noise": _UNIFORM_MEDIAN,
                "loss": _MEDIAN,
                "growth_L": float("inf"),
            },
            {"loss": {"kind": "square", "tau": 0.3}},
            {"signal": {"values": [0.0, 2.0], "lengths": [16, 16], "typo": 1}},
            {"noise": {"kind": "gaussian", "scale": 1.0, "centre_tau": 0.5}},
            {"noise": {"kind": "gaussian", "scale": 1.0, "foo": 3}},
            # a value the rule would ignore, yet would still enter config_hash
            {"lambda": {"rule": "sqrt_n_over_k", "value": 5}},
            {"monitor": []},
        ],
    )
    def test_malformed_config_exit_2(self, tmp_path, over):
        cfg = write_config(tmp_path, small_config(**over))
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("text", ["[1, 2]", '"abc"'], ids=["list", "string"])
    def test_non_object_config_with_seed_exit_2(self, tmp_path, text, capsys):
        path = tmp_path / "config.json"
        path.write_text(text)
        argv = ["simulate", "--config", str(path), "--seed", "3", "--out-dir", str(tmp_path / "x")]
        assert main(argv) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_bad_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "x")]) == 2

    def test_delta_out_of_range_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, small_config(delta=0.5))
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "x")]) == 3

    def test_no_temp_files_left(self, tmp_path):
        cfg = write_config(tmp_path, small_config())
        out = tmp_path / "clean"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        leftovers = [f for f in os.listdir(out) if f.startswith(".tmp-") or f.endswith("~")]
        assert leftovers == []
        names = set(os.listdir(out))
        assert {"summary.json", "per_index.csv"} <= names


@pytest.mark.parametrize(
    "command, first_file",
    [
        ("solve", "solution.csv"),
        ("bounds", "bounds.csv"),
        ("lil", "lil.csv"),
        ("simulate", "summary.json"),
    ],
)
def test_unwritable_out_dir_exit_2(tmp_path, command, first_file, capsys):
    """An --out-dir that is a file or lies under one, or an output name taken
    by a directory, is an input error; no temp file is left behind."""
    inp = tmp_path / "y.csv"
    inp.write_text("0.0\n1.0\n")
    argv = {
        "solve": ["solve", "--input", str(inp), "--lambda", "1.0"],
        "bounds": [
            "bounds", "--signal-values", "0,1", "--signal-lengths", "8,8",
            "--delta", "0.05", "--lambda", "4.0",
        ],
        "lil": ["lil", "--delta", "0.1", "--horizon", "16", "--paths", "4", "--seed", "3"],
        "simulate": ["simulate", "--config", write_config(tmp_path, small_config())],
    }[command]
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert main(argv + ["--out-dir", str(out)]) == 2
        assert "cannot create output directory" in capsys.readouterr().err
    assert blocker.read_text() == ""
    out = tmp_path / "out"
    (out / first_file).mkdir(parents=True)
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert f"cannot write {out / first_file}" in capsys.readouterr().err
    assert os.listdir(out) == [first_file]


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_output_mode_is_what_open_creates(tmp_path, umask):
    """Outputs get 0o666 less the umask, as a file open(path, "w") creates."""
    old = os.umask(umask)
    try:
        out = tmp_path / "out"
        argv = ["simulate", "--config", write_config(tmp_path, small_config())]
        assert main(argv + ["--out-dir", str(out)]) == 0
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old)
    want = stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)
    assert want == 0o666 & ~umask
    for name in ("summary.json", "per_index.csv"):
        assert stat.S_IMODE(os.stat(out / name).st_mode) == want, name


def test_parser_built_once_and_no_value_leaks(tmp_path, monkeypatch):
    """main parses every call with one parser, and no argument of one call
    reaches the next."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()

    cfg = small_config()
    path = write_config(tmp_path, cfg)
    inp = tmp_path / "y.csv"
    inp.write_text("0.0\n0.0\n10.0\n")

    def simulate(out, *extra):
        assert main(["simulate", "--config", path, *extra, "--out-dir", str(tmp_path / out)]) == 0
        return json.loads((tmp_path / out / "summary.json").read_text())["config_hash"]

    def solve_cmd(out, *extra):
        argv = ["solve", "--input", str(inp), "--lambda", "1.0", *extra]
        assert main(argv + ["--out-dir", str(tmp_path / out)]) == 0
        return json.loads((tmp_path / out / "solution.json").read_text())

    seeded = ExperimentSpec.from_config(cfg | {"seed": 5}).config_hash()
    assert simulate("a", "--seed", "5") == seeded
    assert simulate("b") == ExperimentSpec.from_config(cfg).config_hash()
    assert solve_cmd("c", "--loss", "quantile", "--tau", "0.5")["tau"] == 0.5
    # a tau left over from the call before would make the square loss exit 2
    meta = solve_cmd("d")
    assert (meta["loss"], meta["tau"]) == ("square", None)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", str(inp), "--lambda", "x"])
    assert exc.value.code == 2
    assert simulate("e") == ExperimentSpec.from_config(cfg).config_hash()
    summary = "summary.json"
    assert (tmp_path / "e" / summary).read_bytes() == (tmp_path / "b" / summary).read_bytes()

    one_build = len(built)  # every parser the calls above made
    build_parser()
    assert len(built) == 2 * one_build
    assert build_parser() is not build_parser()
