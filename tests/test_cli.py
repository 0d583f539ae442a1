import argparse
import contextlib
import io
import json
import os
import stat
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfl import cli
from gfl.cli import _write_outputs, build_parser, main
from gfl.errors import ConfigError, GflError
from gfl.losses import QuantileLoss
from gfl.simulate import ExperimentSpec
from gfl.solver import FusedLassoProblem, solve


def write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


_MEDIAN = {"kind": "quantile", "tau": 0.5}
_UNIFORM_MEDIAN = {"kind": "uniform", "scale": 1.0, "center_tau": 0.5}
_QUANTILE = {"noise": _UNIFORM_MEDIAN, "loss": _MEDIAN, "growth_L": "auto"}


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

    def test_bad_input_exit_2(self, tmp_path, capsys):
        inp = tmp_path / "y.csv"
        # float alone would read "1_000" as 1000.0 and Arabic-Indic digits
        # as 12.0, and strip a no-break space
        for text in ("1.0\nnot-a-number\n", "1.0\n1_000\n", "\u0661\u0662\n", "1.0\u00a0\n"):
            inp.write_text(text, encoding="utf-8")
            assert main(["solve", "--input", str(inp), "--lambda", "1.0"]) == 2
            assert "non-numeric line in" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--input", str(inp), "--lambda", "1_0"])
        assert exc.value.code == 2
        assert "argument --lambda: invalid float value: '1_0'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("sep", ["\x0c", "\x1c", "\x1e", "\x0b"])
    def test_line_with_inner_line_break_character_exit_2(self, tmp_path, capsys, sep):
        # str.splitlines would split "1<sep>2" into two values; a line ends
        # only at a newline, so this line is one malformed value
        inp = tmp_path / "y.csv"
        inp.write_bytes(f"0.5\n1{sep}2\n3.0\n".encode())
        out = tmp_path / "out"
        assert main(["solve", "--input", str(inp), "--lambda", "1.0", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        line = "1" + sep + "2"
        assert f"non-numeric line in {inp}: could not convert string to float: {line!r}" in err
        assert not out.exists()

    def test_blank_lines_padding_and_line_endings(self, tmp_path):
        inp = tmp_path / "y.csv"
        inp.write_bytes(b"\n  0.5 \r\n\t-2\r\r\n3e0\x0c\n\n \n1")
        assert cli._read_values(str(inp)).tolist() == [0.5, -2.0, 3.0, 1.0]
        inp.write_bytes(b" \n\n\t\r\n")
        with pytest.raises(GflError, match="is empty"):
            cli._read_values(str(inp))



@pytest.mark.parametrize(
    "over",
    [
        {},
        {"experiment": "sse", "noise": _UNIFORM_MEDIAN, "loss": _MEDIAN, "growth_L": 1.2},
        {"experiment": "lambda_sweep", "lambda_grid": [1.0, 4.0]},
    ],
    ids=["pointwise", "sse_quantile", "lambda_sweep"],
)
def test_objective_computed_only_by_solve_command(tmp_path, objective_calls, over):
    """No simulate runner reads the objective, so no fit computes it; gfl
    solve writes it, and computes it once."""
    cfg = write_config(tmp_path, small_config(**over))
    assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "sim")]) == 0
    assert objective_calls == []
    inp = tmp_path / "y.csv"
    inp.write_text("0.0\n0.0\n10.0\n")
    argv = ["solve", "--input", str(inp), "--lambda", "1.0", "--out-dir", str(tmp_path / "s")]
    assert main(argv) == 0
    assert len(objective_calls) == 1

def test_non_finite_json_is_not_written(tmp_path):
    out = tmp_path / "out"
    path = out / "x.json"
    for bad in (float("nan"), float("inf")):
        with pytest.raises(GflError, match="not writing"):
            _write_outputs(str(out), {"a.csv": {"v": [1.0]}, "x.json": {"value": bad}}, "hash")
        assert not path.exists()
        assert not out.exists()  # nor the CSV before it, nor the directory


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

    def test_bad_signal_exit_2(self, tmp_path, capsys):
        bad_spec = "bad signal specification"
        for values, lengths, message in [
            ("0,zero", "8,8", bad_spec),
            ("0,1_0", "8,8", bad_spec),
            ("0,\u0661", "8,8", bad_spec),
            ("0,1", "8,1_6", bad_spec),
            ("0,1", "8,\u0668", bad_spec),
            ("0,1", "5", "values and lengths must be nonempty and of equal length"),
        ]:
            rc = main(
                [
                    "bounds",
                    "--signal-values", values,
                    "--signal-lengths", lengths,
                    "--delta", "0.05",
                    "--lambda", "4.0",
                    "--out-dir", str(tmp_path / "b"),
                ]
            )
            assert rc == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["bounds", "lil"])
    def test_non_finite_delta_exit_2(self, tmp_path, capsys, command, delta):
        argv = {
            "bounds": ["bounds", "--signal-values", "0,1", "--signal-lengths", "8,8",
                       "--lambda", "4.0"],
            "lil": ["lil", "--horizon", "16", "--paths", "4", "--seed", "3"],
        }[command]
        assert main(argv + [f"--delta={delta}", "--out-dir", str(tmp_path / "o")]) == 2
        assert f"delta must be a finite number; got {delta}" in capsys.readouterr().err


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


    def test_sigma_beyond_float64_scale_exit_2(self, tmp_path, capsys):
        """Draws this large overflow to NaN ratios: refused before any draw
        or file, and numpy warns of nothing."""
        out = tmp_path / "lil"
        argv = ["lil", "--sigma", "1e308", "--delta", "0.1", "--horizon", "100", "--paths", "10"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--seed", "1", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "sigma 1e+308 are beyond float64 scale" in err and "2^1000" in err
        assert not out.exists()

    def test_sigma_below_float64_scale_exit_2(self, tmp_path, capsys):
        """Subnormal draws round the scale-free ratios: refused before any
        draw or file."""
        out = tmp_path / "lil"
        argv = ["lil", "--sigma", "1e-320", "--delta", "0.1", "--horizon", "100", "--paths", "10"]
        assert main(argv + ["--seed", "1", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "sigma 1e-320 are beyond float64 scale" in err and "2^-1000" in err
        assert not out.exists()

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
            # json.dumps writes these as NaN and Infinity, which JSON lacks
            {"delta": float("nan")},
            {"delta": float("inf")},
            {"signal": {"values": [0.0, float("-inf")], "lengths": [16, 16]}},
            # neither sweep: the run would write no CSV
            {"experiment": "rate_sweep"},
        ],
    )
    def test_malformed_config_exit_2(self, tmp_path, over):
        cfg = write_config(tmp_path, small_config(**over))
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "over, argv", [({}, ["--seed", "-1"]), ({"seed": 2**64}, [])], ids=["flag", "config"]
    )
    def test_seed_outside_uint64_exit_2(self, tmp_path, capsys, over, argv):
        """A seed is never reduced mod 2^64, which would give -1 and 2^64 - 1
        (or 0 and 2^64) one stream under two provenances: it is refused."""
        cfg = write_config(tmp_path, small_config(**over))
        out = tmp_path / "x"
        assert main(["simulate", "--config", cfg, *argv, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed must lie in [0, 2^64)" in err
        assert not out.exists()

    def test_largest_seed_runs(self, tmp_path):
        cfg = write_config(tmp_path, small_config(seed=2**64 - 1))
        assert main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "x")]) == 0

    @pytest.mark.parametrize("text", ["[1, 2]", '"abc"'], ids=["list", "string"])
    def test_non_object_config_with_seed_exit_2(self, tmp_path, text, capsys):
        path = tmp_path / "config.json"
        path.write_text(text)
        argv = ["simulate", "--config", str(path), "--seed", "3", "--out-dir", str(tmp_path / "x")]
        assert main(argv) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path, capsys):
        path, out = tmp_path / "missing.json", tmp_path / "x"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 2
        assert f"config error: cannot read config {path}: " in capsys.readouterr().err
        assert not out.exists()

    def test_unrealizable_sweep_distance_exit_2(self, tmp_path, capsys):
        """No index of a 100-long segment lies at distance 80 from the
        change point: the rate sweep refuses before it writes anything."""
        signal = {"values": [0.0, 1.0], "lengths": [100, 100]}
        cfg = write_config(
            tmp_path, small_config(experiment="rate_sweep", signal=signal, d_grid=[2, 80])
        )
        out = tmp_path / "x"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 2
        assert "config error: d=80 not realizable on this signal" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "over",
        [
            {"delta": 0.5},
            {"experiment": "elementwise_quantile", **_QUANTILE, "delta": 0.5},
            {"experiment": "sse", **_QUANTILE, "delta": 0.1},
            {"experiment": "lambda_sweep", **_QUANTILE, "delta": 0.1},
        ],
        ids=["pointwise", "elementwise_quantile", "sse", "lambda_sweep"],
    )
    def test_delta_out_of_range_exit_3(self, tmp_path, capsys, over):
        """A delta outside a bound's range refuses the run, in every
        experiment that evaluates the bound; the quantile SSE bound's range
        ends at 0.065, and a lambda sweep used to write a null bound instead."""
        cfg = write_config(tmp_path, small_config(**over))
        out = tmp_path / "x"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 3
        assert "precondition failed: delta must lie in" in capsys.readouterr().err
        assert not out.exists()

    def test_quantile_lambda_sweep_overflowing_bound_exit_2(self, tmp_path, capsys):
        """A lambda whose SSE bound overflows is refused before any fit, as
        in sse, although the bound's lambda window fails there too."""
        over = {"experiment": "lambda_sweep", **_QUANTILE, "lambda_grid": [1e-155, 1.0]}
        cfg = write_config(tmp_path, small_config(**over))
        out = tmp_path / "x"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 2
        assert "is beyond float64 scale" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "over, files",
        [
            (
                {
                    "experiment": "elementwise_quantile", **_QUANTILE, "monitor": "all",
                    "lambda": {"rule": "fixed", "value": 5.0},
                },
                ["summary.json"],
            ),
            ({"experiment": "rate_sweep", "d_grid": [2, 4]},
             ["plotdata_d_sweep.csv", "summary.json"]),
            ({"experiment": "rate_sweep", "n_sweep": [8, 16]},
             ["plotdata_n_sweep.csv", "summary.json"]),
        ],
        ids=["quantile-none-admissible", "d-sweep-only", "n-sweep-only"],
    )
    def test_table_with_no_rows_is_not_written(self, tmp_path, over, files):
        """A CSV whose table has no rows is left out; summary.json still
        holds the table, as [] when it has no rows."""
        cfg = write_config(tmp_path, small_config(**over))
        out = tmp_path / "x"
        assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
        assert sorted(os.listdir(out)) == files
        summary = json.loads((out / "summary.json").read_text())
        if over["experiment"] == "elementwise_quantile":
            assert summary["per_index"] == [] and summary["monitored"] == []
            assert len(summary["excluded_not_admissible"]) == 32

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


@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""])
@pytest.mark.parametrize(
    "target, argv",
    [
        ("gfl.cli.verify_paths", ["lil", "--delta", "0.1", "--horizon", "16", "--seed", "1"]),
        (
            "gfl.bounds.bound_report",
            ["bounds", "--signal-values", "0,1", "--signal-lengths", "8,8",
             "--delta", "0.05", "--lambda", "1"],
        ),
    ],
    ids=["lil", "bounds"],
)
def test_out_of_memory_exit_2(tmp_path, capsys, monkeypatch, target, argv, message):
    """An input too large to allocate (such as gfl lil --horizon 10^12) is
    one line on stderr and exit 2, with no traceback and no directory."""
    def allocate(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(target, allocate)
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out of memory: {message or 'allocation failed'}\n"
    assert not out.exists()


_HUGE = "100000000000000000000"  # 10^20, past numpy's index range and int64


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lil", "--delta", "0.1", "--seed", "1", "--horizon", _HUGE, "--paths", "1"],
         f"horizon is {_HUGE}, beyond numpy's index range"),
        (["lil", "--delta", "0.1", "--seed", "1", "--horizon", "10", "--paths", _HUGE],
         f"paths is {_HUGE}, beyond numpy's index range"),
        (
            ["bounds", "--signal-values", "0,1", "--signal-lengths", f"{_HUGE},1",
             "--delta", "0.05", "--lambda", "1"],
            f"the sum of --signal-lengths is {_HUGE[:-1]}1, beyond numpy's index range",
        ),
        ({"signal": {"values": [0.0, 2.0], "lengths": [int(_HUGE), 16]}},
         f"the sum of signal.lengths is {_HUGE[:-2]}16, beyond numpy's index range"),
        ({"experiment": "rate_sweep", "n_sweep": [8, int(_HUGE)]},
         f"the largest n_sweep entry is {_HUGE}, beyond numpy's index range"),
        ({"monitor": [1, int(_HUGE)]}, "monitored indices out of range"),
        ({"experiment": "sse", "replications": int(_HUGE)},
         f"replications is {_HUGE}, beyond numpy's index range"),
    ],
    ids=["lil-horizon", "lil-paths", "bounds-lengths", "simulate-lengths", "simulate-n-sweep",
         "simulate-monitor", "simulate-replications"],
)
def test_count_beyond_numpy_index_range_exit_2(tmp_path, capsys, argv, message):
    """A count that numpy cannot index is one stderr line naming its flag or
    config key and exit 2, with no traceback and no directory."""
    if isinstance(argv, dict):
        argv = ["simulate", "--config", write_config(tmp_path, small_config(**argv))]
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {message}") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("sign", [1, -1], ids=["+", "-"])
@pytest.mark.parametrize(
    "key, over",
    [
        ("signal.values entry", lambda v: {"signal": {"values": [0, v], "lengths": [16, 16]}}),
        ("delta", lambda v: {"delta": v}),
        ("noise.scale", lambda v: {"noise": {"kind": "gaussian", "scale": v}}),
        ("lambda.value", lambda v: {"lambda": {"rule": "fixed", "value": v}}),
        ("lambda_grid entry", lambda v: {"experiment": "lambda_sweep", "lambda_grid": [1.0, v]}),
        ("growth_L", lambda v: {"growth_L": v}),
    ],
    ids=["signal.values", "delta", "noise.scale", "lambda.value", "lambda_grid", "growth_L"],
)
def test_config_integer_beyond_float64_exit_2(tmp_path, capsys, key, over, sign):
    """A JSON integer with no float64 value, in a key that takes a number,
    is one stderr line naming the key and exit 2, with no directory."""
    cfg = write_config(tmp_path, small_config(**over(sign * 10**400)))
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {key} is beyond float64's range (max 1.798e+308)\n"
    assert not out.exists()


def test_config_integer_of_too_many_digits_exit_2(tmp_path, capsys):
    """Python refuses to parse an integer of more than 4300 digits: one line
    and exit 2, as for any other config that does not parse."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config()).replace('"delta": 0.05', '"delta": 1' + "0" * 5000))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config is not valid JSON: ") and err.count("\n") == 1
    assert not out.exists()


_QUANTILE_SSE = {"experiment": "sse", "noise": _UNIFORM_MEDIAN, "loss": _MEDIAN}


@pytest.mark.parametrize(
    "argv, over",
    [
        (["--growth-L", "1e-100"], None),
        (["--growth-L", "1e100"], None),
        (None, {"experiment": "sse", "lambda": {"rule": "fixed", "value": 1e-200}}),
        (None, {"experiment": "lambda_sweep", "lambda_grid": [1e-200, 1.0]}),
        (None, {**_QUANTILE_SSE, "growth_L": 1e-100}),
        (None, {**_QUANTILE_SSE, "growth_L": 1e100}),
        (["--lambda", "1e-320"], None),
        (["--sigma", "1e200"], None),
        (None, {"lambda": {"rule": "fixed", "value": 1e-320}}),
        # sigma^2 underflows to 0 and ln(1/delta) is inf: inf * 0 in the bound
        (["--sigma", "5e-324", "--delta", "5e-324", "--lambda", "0.5"], None),
    ],
    ids=[
        "bounds-L-tiny", "bounds-L-huge", "sse-lambda", "lambda-sweep", "sse-L-tiny",
        "sse-L-huge", "bounds-lambda-tiny", "bounds-sigma-huge", "pointwise-lambda-tiny",
        "bounds-sigma-squared-underflows",
    ],
)
def test_lambda_or_L_beyond_float64_scale_exit_2(tmp_path, capsys, monkeypatch, argv, over):
    """A lambda whose square, or an L whose fourth power, leaves float64's
    range, and a lambda or sigma that takes the elementwise bound beyond it,
    is refused before any fit or file, and numpy warns of nothing."""
    monkeypatch.setattr("gfl.simulate.solve", None)  # a fit would raise TypeError
    if over is None:
        argv = [
            "bounds", "--signal-values", "0,1", "--signal-lengths", "8,8",
            "--delta", "0.05", "--lambda", "4.0", *argv,
        ]
    else:
        argv = ["simulate", "--config", write_config(tmp_path, small_config(**over))]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "is beyond float64 scale" in err and err.count("\n") == 1
    assert not out.exists()


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


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(lam=_POSITIVE, sigma=_POSITIVE)
@settings(max_examples=60, deadline=None)
def test_bounds_writes_both_files_or_none(lam, sigma):
    """For any finite, positive lambda and sigma, gfl bounds either writes
    both of its files or exits 2 and writes nothing, with no numpy warning."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        argv = [
            "bounds", "--signal-values", "0,1", "--signal-lengths", "8,8", "--delta", "0.05",
            "--lambda", repr(lam), "--sigma", repr(sigma), "--out-dir", out,
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv)
        if rc == 0:
            assert sorted(os.listdir(out)) == ["bounds.csv", "bounds.json"]
        else:
            assert rc == 2 and not os.path.exists(out)


# -- every failure is one line: a property over the numbers of each command ---

_ODD_FLOATS = ["5e-324", "-0.0", "1e308", "1e400"]  # 1e400 parses as inf
_SMALL_FLOATS = st.floats(-4.0, 4.0, allow_nan=False).map(repr)
_FLAG_FLOATS = st.sampled_from(["nan", "inf", "-inf", *_ODD_FLOATS]) | _SMALL_FLOATS
# NaN and Infinity are what json.dumps writes for them
_JSON_FLOATS = st.sampled_from(["NaN", "Infinity", "-Infinity", *_ODD_FLOATS]) | _SMALL_FLOATS
# integers from a small range or past int64, never a size that could commit memory
_PAST_INT64 = st.integers(2**63, 10**400)


def _ints(lo: int, hi: int):
    return (st.integers(lo, hi) | _PAST_INT64).map(str)


def _perturbed(good: dict, odd: dict):
    """``good``, {name: valid text}, with at most two names drawn from
    ``odd`` instead; Hypothesis shrinks toward ``good``."""
    return st.sets(st.sampled_from(sorted(odd)), max_size=2).flatmap(
        lambda names: st.fixed_dictionaries(
            {k: odd[k] if k in names else st.just(good.get(k)) for k in good.keys() | odd.keys()}
        )
    )


def _runs_cleanly(command: str, flags: dict) -> None:
    """``gfl command`` with ``flags`` (a None value is left out) exits 0 with
    its directory, or 2 or 3 with one stderr line and no directory; no
    exception escapes and numpy warns of nothing."""
    argv = [command] + [f"{k}={v}" for k, v in sorted(flags.items()) if v is not None]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stderr(err):
                rc = main(argv + ["--out-dir", out])
        if rc == 0:
            assert os.path.isdir(out) and err.getvalue() == ""
        else:
            assert rc in (2, 3), rc
            assert err.getvalue().count("\n") == 1, err.getvalue()
            assert not os.path.exists(out)


@given(
    loss=st.sampled_from(["square", "quantile"]),
    flags=_perturbed({"--lambda": "1.0"}, {"--lambda": _FLAG_FLOATS, "--tau": _FLAG_FLOATS}),
)
@settings(max_examples=40, deadline=None)
def test_solve_numbers_fail_in_one_line(tmp_path_factory, loss, flags):
    path = tmp_path_factory.getbasetemp() / "y.csv"
    path.write_text("0.1\n-3.25\n2.5\n1e300\n")
    if loss == "quantile" and flags["--tau"] is None:
        flags["--tau"] = "0.5"
    _runs_cleanly("solve", flags | {"--input": str(path), "--loss": loss})


_LIL = {"--sigma": "1.0", "--delta": "0.1", "--horizon": "16", "--paths": "3", "--seed": "1"}


@given(
    _perturbed(
        _LIL,
        {"--sigma": _FLAG_FLOATS, "--delta": _FLAG_FLOATS, "--horizon": _ints(-1, 40),
         "--paths": _ints(-1, 5), "--seed": _ints(-1, 5)},
    )
)
@settings(max_examples=60, deadline=None)
def test_lil_numbers_fail_in_one_line(flags):
    _runs_cleanly("lil", flags)


_BOUNDS = {"--signal-values": "0,1.5", "--signal-lengths": "8,8", "--sigma": "0.5",
           "--delta": "0.05", "--lambda": "4.0"}


@given(
    _perturbed(
        _BOUNDS,
        {"--signal-values": st.lists(_FLAG_FLOATS, min_size=2, max_size=2).map(",".join),
         "--signal-lengths": st.lists(_ints(-1, 40), min_size=2, max_size=2).map(",".join),
         "--sigma": _FLAG_FLOATS, "--delta": _FLAG_FLOATS, "--lambda": _FLAG_FLOATS,
         "--growth-L": _FLAG_FLOATS},
    )
)
@example(_BOUNDS | {"--sigma": "5e-324", "--delta": "5e-324", "--lambda": "0.5"})
@settings(max_examples=60, deadline=None)
def test_bounds_numbers_fail_in_one_line(flags):
    _runs_cleanly("bounds", flags)


# the numbers of a simulate config as JSON text, by the key that holds them
_NUMBERS = {
    "values.0": "0.0", "values.1": "2.0", "lengths.0": "16", "lengths.1": "16",
    "lambda.value": "4.0", "delta": "0.05", "replications": "2", "noise.scale": "1.0",
    "noise.center_tau": "0.5", "loss.tau": "0.5", "growth_L": '"auto"', "lambda_grid.0": "4.0",
}
_ODD_NUMBERS = {
    k: _ints(-1, 40) if k.startswith("lengths") else _JSON_FLOATS for k in _NUMBERS
} | {"replications": _ints(-1, 3)}


@given(
    experiment=st.sampled_from(
        ["pointwise", "elementwise_quantile", "sse", "lambda_sweep", "rate_sweep"]
    ),
    quantile=st.booleans(),
    v=_perturbed(_NUMBERS, _ODD_NUMBERS),
)
# no bound limits rate_sweep's noise: its draws overflowed (a numpy warning,
# or numpy's OverflowError for uniform noise)
@example(experiment="rate_sweep", quantile=False, v=_NUMBERS | {"noise.scale": "1e308"})
@example(experiment="rate_sweep", quantile=True, v=_NUMBERS | {"noise.scale": "1e308"})
@example(experiment="rate_sweep", quantile=False, v=_NUMBERS | {"values.1": "1e308"})
@settings(max_examples=100, deadline=None)
def test_simulate_config_numbers_fail_in_one_line(tmp_path_factory, experiment, quantile, v):
    parts = {
        "experiment": json.dumps(experiment),
        "signal": f'{{"values": [{v["values.0"]}, {v["values.1"]}], '
                  f'"lengths": [{v["lengths.0"]}, {v["lengths.1"]}]}}',
        "lambda": f'{{"rule": "fixed", "value": {v["lambda.value"]}}}',
        "delta": v["delta"],
        "replications": v["replications"],
        "seed": "3",
        "monitor": '"all"',
        "noise": f'{{"kind": "gaussian", "scale": {v["noise.scale"]}}}',
        "loss": '{"kind": "square"}',
        "lambda_grid": f'[{v["lambda_grid.0"]}, 1.0]',
        "d_grid": "[2, 4]" if experiment == "rate_sweep" else "[]",
        "n_sweep": "[8, 16]" if experiment == "rate_sweep" else "[]",
    }
    if quantile or experiment == "elementwise_quantile":
        parts["noise"] = (
            f'{{"kind": "uniform", "scale": {v["noise.scale"]}, '
            f'"center_tau": {v["noise.center_tau"]}}}'
        )
        parts["loss"] = f'{{"kind": "quantile", "tau": {v["loss.tau"]}}}'
        parts["growth_L"] = v["growth_L"]
    path = tmp_path_factory.getbasetemp() / "config.json"
    path.write_text("{" + ", ".join(f'"{k}": {t}' for k, t in parts.items()) + "}")
    _runs_cleanly("simulate", {"--config": str(path)})


def test_solve_refuses_an_overflowing_objective(tmp_path, capsys):
    """The fit theta = 0 is certified, but its objective overflows float64:
    gfl solve exits 2 before it writes a file."""
    inp = tmp_path / "y.csv"
    inp.write_text("1e200\n-1e200\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["solve", "--input", str(inp), "--lambda", "1e300", "--out-dir", str(out)]
        assert main(argv) == 2
    assert "the objective at the fit overflows float64" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
def test_solve_refuses_a_non_finite_input(tmp_path, capsys, bad):
    """A `gfl solve` input line that reads as NaN or an infinity (1e400
    overflows to one) exits 2 in one line and writes nothing; the problem
    itself refuses such a y."""
    inp = tmp_path / "y.csv"
    inp.write_text(f"1.0\n{bad}\n2.0\n")
    out = tmp_path / "out"
    assert main(["solve", "--input", str(inp), "--lambda", "1.0", "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "config error: y contains non-finite values\n"
    assert not out.exists()
    with pytest.raises(ConfigError, match="y contains non-finite values"):
        FusedLassoProblem(y=[1.0, float(bad)], lam=1.0, loss=QuantileLoss(0.5))
