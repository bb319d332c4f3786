import ast
import csv
import dataclasses
import inspect
import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import homsim
from homsim import (
    Envelope,
    SourcePair,
    cli,
    dip_ratio,
    montecarlo,
    read_events,
    visibility_closed_form,
)
import quadrature
from helpers import event_file, frame

SRC = Path(__file__).resolve().parents[1] / "src"


def write_cfg(path, **overrides):
    base = {
        "n_triggers": 40_000,
        "eta_f": 1.0,
        "eta_s": 1.0,
        "xi": 1.0,
        "seed": 11,
        "hist_range": 255,
        "t_c": 245,
    }
    base.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return path


def read_oracle_rows(path):
    rows = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("quantity"):
                continue
            kind, x, value = line.strip().split(",")
            rows.setdefault(kind, []).append((x, float(value)))
    return rows


class TestConfigParsing:
    def test_defaults_fill_in(self, tmp_path):
        cfg = cli.parse_config_file(write_cfg(tmp_path / "c.cfg"))
        assert cfg["tau_s"] == 26.18
        assert cfg["bin_width"] == 10.0
        assert cfg["subtract_accidentals"] is False

    def test_analysis_defaults_are_the_librarys(self):
        # a config file's analysis defaults are those of the library calls
        # that take them
        def default(func, name):
            return inspect.signature(func).parameters[name].default

        keys = {key: default for key, (_, default) in cli.CONFIG_KEYS.items()}
        assert keys["valid_window"] == default(homsim.pair_events, "valid_window") == 85.0
        for func in (homsim.histogram, homsim.expected_histogram):
            assert keys["bin_width"] == default(func, "bin_width") == 10.0
            assert keys["hist_range"] == default(func, "half_range") == 205.0
        assert default(homsim.expected_histogram, "valid_window") == keys["valid_window"]
        wing = default(homsim.estimate_accidentals, "wing")
        assert (keys["wing_low"], keys["wing_high"]) == wing == (100.0, 200.0)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("n_triggers = 10\nwibble = 3\n")
        with pytest.raises(cli.ConfigError, match="wibble"):
            cli.parse_config_file(p)

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("n_triggers = lots\n")
        with pytest.raises(cli.ConfigError, match="n_triggers"):
            cli.parse_config_file(p)

    def test_key_given_twice_exit_one(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("n_triggers = 1000\n# a second run length\nn_triggers = 2000\n")
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: {p}:3: config key 'n_triggers' given again (first on line 1)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "analyze", "dip"])
    @pytest.mark.parametrize("kind", ["not_utf8", "directory", "missing"])
    def test_unreadable_config_exit_one(self, tmp_path, capsys, command, kind):
        p = tmp_path / "c.cfg"
        if kind == "directory":
            p.mkdir()
        elif kind == "not_utf8":
            p.write_bytes(b"\xffn_triggers = 1000\n")
        out = tmp_path / "out"
        events = ["--par", str(p), "--perp", str(p)] if command == "analyze" else []
        assert cli.main([command, *events, "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(p) in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_bad_boolean_names_file_line_and_key(self, tmp_path, capsys):
        p = write_cfg(tmp_path / "c.cfg", subtract_accidentals="maybe")  # line 8
        out = tmp_path / "out"
        assert cli.main(["dip", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: {p}:8: bad value for subtract_accidentals: "
            "expected a boolean, got 'maybe'\n"
        )
        assert not out.exists()

    def test_line_without_equals_names_file_and_line(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("n_triggers = 1000\nseed 3\n")
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {p}:2: expected 'key = value'\n"
        assert not out.exists()

    def test_comments_and_lists(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(
            "# heading\nn_triggers = 5  # inline\ndelta_t_list = -10, 0, 10\n"
        )
        cfg = cli.parse_config_file(p)
        assert cfg["n_triggers"] == 5
        assert cfg["delta_t_list"] == [-10.0, 0.0, 10.0]

    def test_dump_config_parses_back(self, tmp_path, capsys):
        assert cli.main(["--dump-config"]) == 0
        text = capsys.readouterr().out
        p = tmp_path / "template.cfg"
        p.write_text(text)
        cfg = cli.parse_config_file(p)
        assert cfg["n_triggers"] == 1000


class TestOracle:
    def test_defaults_table(self, tmp_path, capsys):
        assert cli.main(["oracle", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "visibility = 0.9002" in out
        rows = read_oracle_rows(tmp_path / "oracle.csv")
        assert len(rows["dip_ratio"]) == 17  # -40..40 step 5
        assert rows["visibility"][0][1] == pytest.approx(0.9002, abs=1e-4)
        dip = dict(rows["dip_ratio"])
        assert dip["0"] == pytest.approx(0.0998, abs=1e-4)
        assert dip["10"] < dip["-10"]

    def test_equal_taus_dip_vanishes(self, tmp_path):
        assert cli.main([
            "oracle", "--tau-s", "20", "--tau-f", "20", "--out", str(tmp_path)
        ]) == 0
        dip = dict(read_oracle_rows(tmp_path / "oracle.csv")["dip_ratio"])
        assert dip["0"] == pytest.approx(0.0, abs=1e-12)

    def test_detuned_rows_match_quadrature(self, tmp_path):
        # every row in file order, formatted as the writer promises, with the
        # detuned densities checked against the independent quadrature path
        assert cli.main([
            "oracle", "--detuning", "2", "--xi", "0.8", "--delta-t=-5:5:5",
            "--density-range=-4:4:2", "--out", str(tmp_path),
        ]) == 0
        lines = (tmp_path / "oracle.csv").read_text().splitlines()
        assert lines[0].startswith("# config_hash=") and lines[1] == "quantity,x_ns,value"
        env_f, env_s = Envelope(13.61), Envelope(26.18, detuning=2.0)
        expected = [
            (name, x, quadrature.density(SourcePair(env_f, env_s, xi), x))
            for name, xi in (("g_perp", 0.0), ("g_par", 0.8))
            for x in (-4.0, -2.0, 0.0, 2.0, 4.0)
        ] + [("dip_ratio", x, dip_ratio(x, 26.18, 13.61)) for x in (-5.0, 0.0, 5.0)]
        rows = [line.split(",") for line in lines[2:-1]]
        assert [row[:2] for row in rows] == [[name, f"{x:g}"] for name, x, _ in expected]
        for (_, _, value), (_, _, want) in zip(rows, expected):
            assert float(value) == pytest.approx(want, abs=1e-10)
        dip_text = [value for name, _, value in rows if name == "dip_ratio"]
        assert dip_text == [f"{want:.12g}" for _, _, want in expected[-3:]]
        assert lines[-1] == f"visibility,,{visibility_closed_form(26.18, 13.61):.12g}"

    def test_bad_parameters_exit_one(self, tmp_path, capsys):
        assert cli.main(["oracle", "--tau-s", "-4", "--out", str(tmp_path)]) == 1
        assert "tau" in capsys.readouterr().err

    def test_bad_grid_exit_one(self, tmp_path):
        assert cli.main([
            "oracle", "--delta-t", "10:0:5", "--out", str(tmp_path)
        ]) == 1

    @pytest.mark.parametrize("args, message", [
        (["--tau-s", "-4"], "tau_s must lie in [1e-150, 1e+150] ns, got -4.0"),
        (["--xi", "1.5"], "xi must lie in [0, 1], got 1.5"),
        (["--detuning", "inf"], "detuning must be finite, got inf"),
        # coherence times whose model overflows or underflows
        (["--tau-s", "1e-320"], "tau_s must lie in [1e-150, 1e+150] ns, got 1e-320"),
        (["--tau-s", "1e-160", "--tau-f", "1e-160"],
         "tau_f must lie in [1e-150, 1e+150] ns, got 1e-160"),
        (["--tau-s", "1e-200", "--tau-f", "1e-200"],
         "tau_f must lie in [1e-150, 1e+150] ns, got 1e-200"),
        (["--tau-s", "1e200", "--tau-f", "1e200"],
         "tau_f must lie in [1e-150, 1e+150] ns, got 1e+200"),
        # detunings whose model overflows
        (["--detuning", "1e308", "--density-range=-1000:1000:1000"],
         "detuning must lie in [-1e+06, 1e+06] MHz, got 1e+308"),
        (["--detuning=-1e200"], "detuning must lie in [-1e+06, 1e+06] MHz, got -1e+200"),
        # delay grids whose overlap would overflow at the smallest coherence
        # time, held to a run's delay bound
        *((["--tau-s", "1e-150", f"--delta-t={grid}"],
           f"delta_t must lie in [-1e+150, 1e+150] ns, got {value}")
          for grid, value in (("0:1e300:1e299", "1e+300"), ("-1e300:0:1e299", "-1e+300"),
                              ("0:2e150:2e150", "2e+150"))),
    ], ids=["tau", "xi", "detuning", "tau-1e-320", "taus-1e-160", "taus-1e-200", "taus-1e200",
            "detuning-1e308", "detuning-minus-1e200", "delta-t-1e300", "delta-t-minus-1e300",
            "delta-t-2e150"])
    def test_bad_parameter_names_its_option(self, tmp_path, capsys, args, message):
        assert cli.main(["oracle", *args, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_delay_grid_at_bound_runs(self, tmp_path):
        assert cli.main(["oracle", "--tau-s", "1e-150", "--delta-t=-1e150:1e150:1e150",
                         "--out", str(tmp_path)]) == 0
        dip = read_oracle_rows(tmp_path / "oracle.csv")["dip_ratio"]
        assert [x for x, _ in dip] == ["-1e+150", "0", "1e+150"]

    @pytest.mark.parametrize("option", ["--delta-t", "--density-range"])
    @pytest.mark.parametrize("grid", ["0:10", "0:10:1:2", "a:b:c"])
    def test_grid_without_three_numbers_exit_one(self, tmp_path, capsys, option, grid):
        assert cli.main(["oracle", option, grid, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"config error: bad grid {grid!r}, expected START:STOP:STEP\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option", ["--delta-t", "--density-range"])
    def test_grid_too_large_to_build_exit_one(self, tmp_path, capsys, option):
        assert cli.main(["oracle", option, "0:1e300:1", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("config error: bad grid '0:1e300:1': ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option", ["--delta-t", "--density-range"])
    def test_grid_beyond_bound_exit_one(self, tmp_path, capsys, option):
        # 1e15 points (7.1 PiB) fit no address space: without the bound,
        # numpy's allocation would fail here, allocating nothing
        assert cli.main(["oracle", option, "0:1e15:1", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "config error: bad grid '0:1e15:1': about 1e+15 points, more than 1000000\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option, quantity", [("--delta-t", "dip_ratio"),
                                                  ("--density-range", "g_perp")])
    def test_grid_step_below_float_spacing_exit_one(self, tmp_path, capsys, option, quantity):
        # np.arange makes no point of 5:5:1e-300, where 5 + 1e-300 is 5:
        # the table would leave out every `quantity` row
        assert cli.main(["oracle", option, "5:5:1e-300", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "config error: bad grid '5:5:1e-300': STEP is below the float spacing: "
            "0 points, not 1\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid, points", [("0:0.3:0.1", 4), ("0:1.5:1", 2), ("5:5:1", 1)])
    def test_grid_count_within_float_error_runs(self, tmp_path, grid, points):
        # 0.3 / 0.1 is 2.9999999999999996, and 1.5 lies half a step past 1
        assert cli.main(["oracle", "--delta-t", grid, "--out", str(tmp_path)]) == 0
        assert len(read_oracle_rows(tmp_path / "oracle.csv")["dip_ratio"]) == points

    def test_grid_bound_counts_points(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_GRID", 5)
        assert cli.main(["oracle", "--delta-t", "0:4:1", "--density-range", "0:4:1",
                         "--out", str(tmp_path / "ok")]) == 0
        assert cli.main(["oracle", "--delta-t", "0:5:1", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "config error: bad grid '0:5:1': about 6 points, more than 5\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [
        ["--tau-s", "nan"], ["--tau-f", "inf"], ["--detuning", "inf"], ["--detuning", "nan"],
        ["--delta-t", "0:10:nan"], ["--delta-t", "0:inf:1"], ["--density-range", "nan:1:1"],
        ["--delta-t", "1.7976931348623157e308:1.7976931348623157e308:1e300"],  # STOP + STEP/2
    ], ids=" ".join)
    def test_non_finite_arguments_exit_one(self, tmp_path, capsys, args):
        assert cli.main(["oracle", *args, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "oracle.csv").exists()


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", n_triggers=1000)
        for name in ("one", "two"):
            assert cli.main([
                "simulate", "--config", str(cfg), "--out", str(tmp_path / name)
            ]) == 0
        a = (tmp_path / "one" / "events.csv").read_bytes()
        b = (tmp_path / "two" / "events.csv").read_bytes()
        assert a == b

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", n_triggers=140_000)
        for name, workers in (("w1", "1"), ("w4", "4")):
            assert cli.main([
                "simulate", "--config", str(cfg), "--out", str(tmp_path / name),
                "--workers", workers,
            ]) == 0
        assert (tmp_path / "w1" / "events.csv").read_bytes() == (
            tmp_path / "w4" / "events.csv"
        ).read_bytes()

    def test_dark_run_has_only_triggers(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", n_triggers=1000, eta_f=0.0, eta_s=0.0)
        assert cli.main([
            "simulate", "--config", str(cfg), "--out", str(tmp_path)
        ]) == 0
        codes = read_events(tmp_path / "events.csv").detectors
        assert len(codes) == 1000
        assert (codes == homsim.io.DET_T).all()

    def test_background_counts_near_poisson_mean(self, tmp_path):
        rate, n = 2e-4, 20_000
        cfg = write_cfg(
            tmp_path / "c.cfg", n_triggers=n, eta_f=0.0, eta_s=0.0,
            bg_rate_a=rate, bg_rate_b=rate,
        )
        assert cli.main([
            "simulate", "--config", str(cfg), "--out", str(tmp_path)
        ]) == 0
        codes = read_events(tmp_path / "events.csv").detectors
        mean = rate * 500.0 * n
        for det in (homsim.io.DET_A, homsim.io.DET_B):
            count = np.count_nonzero(codes == det)
            assert abs(count - mean) < 3.0 * np.sqrt(mean)

    def test_sidecar_metadata(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", n_triggers=500)
        assert cli.main([
            "simulate", "--config", str(cfg), "--out", str(tmp_path)
        ]) == 0
        meta = json.loads((tmp_path / "events.json").read_text())
        assert meta["config"]["timestamp_resolution"] == 125.0
        assert meta["config"]["n_triggers"] == 500
        assert meta["n_records"] == len(read_events(tmp_path / "events.csv"))
        assert len(meta["config_hash"]) == 16

    def test_sidecar_matches_library_write(self, tmp_path):
        # one provenance rule: the sidecar's config_hash is the config's,
        # whether the CLI or the library writes the file
        cfg = write_cfg(tmp_path / "c.cfg", n_triggers=1000, seed=7)
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "cli")]) == 0
        config = montecarlo.ExperimentConfig(**{
            k: v for k, v in cli.parse_config_file(cfg).items()
            if k in {f.name for f in dataclasses.fields(montecarlo.ExperimentConfig)}
        })
        (tmp_path / "api").mkdir()
        homsim.write_events(homsim.simulate_frames(config), tmp_path / "api" / "events.csv",
                            metadata={"config": dataclasses.asdict(config)})
        for name in ("events.csv", "events.json"):
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "api" / name).read_bytes()
        meta = json.loads((tmp_path / "api" / "events.json").read_text())
        assert meta["config_hash"] == homsim.io.config_hash(dataclasses.asdict(config))

    def test_missing_required_key_exit_one(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("eta_f = 1.0\n")
        assert cli.main(["simulate", "--config", str(p), "--out", str(tmp_path)]) == 1
        assert "n_triggers" in capsys.readouterr().err

    def test_invalid_physics_exit_one(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", trigger_period=100)
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1

    def test_non_finite_value_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", n_triggers=1000, bg_rate_a="nan")
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("config error: bg_rate_a must be finite")
        assert not (tmp_path / "events.csv").exists()


GOLDEN_RUNS = {
    # two chunks at the paper's efficiency, with background
    "sparse": dict(n_triggers=montecarlo._CHUNK + 4464, eta_f=0.05, eta_s=0.05,
                   bg_rate_a=1e-4, bg_rate_b=1e-4, seed=29),
    # 1 ps ticks and back-to-back windows, a detector offset pushing clicks
    # across each window's end
    "ps": dict(n_triggers=20_000, eta_f=0.5, eta_s=0.5, bg_rate_a=1e-3, bg_rate_b=1e-3,
               detector_offset_a=20, trigger_period=500.002, timestamp_resolution=1, seed=30),
}
# The sha256 of every file that `simulate` par and perp and then `analyze`
# write for GOLDEN_RUNS, as homsim 0.4.0 writes them. A change that moves
# a byte of the stream, of the event file or of an analysis output
# updates them together with its version. 0.4.0's event files of format
# 2 moved every events.csv and events.json (which holds the file's
# digest and no resolution_ps); the analysis outputs kept their bytes.
GOLDEN_DIGESTS = {
    "ps": {
        "ana/histogram_par.csv": "7521b30784cf59b28483c1f7cdd3fd2455212b685e91fd84191304c6e8c6f662",
        "ana/histogram_perp.csv": "122545f3ef28dc2385f04f0e47f7533b2cc47aaa0ba93aa54723f89cf0a2db18",
        "ana/visibility.json": "b7532c09f89e427190704cfdf137f66997a7beb57309911fd17197a67a48520b",
        "par/events.csv": "9fafb9ed4889e816a6adc6af4232f41be3d2d37ab0113717b10588c7527bf030",
        "par/events.json": "6ad9360a8d34ac6e34ce0c7fe43d56f8a58d77f046e55e31b8aedc1064a6de73",
        "perp/events.csv": "f32a898193cf5368b95cb2769fb79d66d2f85fe9002fe13126f9b78a27be42ba",
        "perp/events.json": "5d60437db9eea0ca19bcc93419846a220a8d305f76a18cd63d19d6640d1383b7",
    },
    "sparse": {
        "ana/histogram_par.csv": "767b704d2a25d5c395dce4ba557b6beb64a395c10be92206382b145f288d7b43",
        "ana/histogram_perp.csv": "331e02afe9d59745f06f3ff0fdbc2dc4d86d1e52bd1a6c82de55fc7c93304d50",
        "ana/visibility.json": "0b01104567ab4f72bb740030ddb58c0aac4decc8e75d59c0f0a943de7829dfd1",
        "par/events.csv": "e8279ce4980f85be64cf4b36cb254c68e1dae3f7c377ab69f47ce2c16ca35390",
        "par/events.json": "784b4e5659a3f2f091d92bcc0394800291bb90477e7669a61a7820a67d401e98",
        "perp/events.csv": "15028be2218e24ef30314c7cf60b4fedd839508685e04e82dd4e04447aaa40cc",
        "perp/events.json": "7a203b1e0818269e9986942faae5172f702eab080fce657042448536ca74a917",
    },
}


@pytest.mark.parametrize("run", sorted(GOLDEN_RUNS))
def test_outputs_match_recorded_digests(tmp_path, capsys, run):
    for side, xi in (("par", 1.0), ("perp", 0.0)):
        cfg = write_cfg(tmp_path / f"{side}.cfg", xi=xi, subtract_accidentals="true",
                        **GOLDEN_RUNS[run])
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / side)]) == 0
    assert cli.main(["analyze", "--par", str(tmp_path / "par" / "events.csv"),
                     "--perp", str(tmp_path / "perp" / "events.csv"),
                     "--config", str(tmp_path / "par.cfg"), "--out", str(tmp_path / "ana")]) == 0
    digests = {
        f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*/*"))
    }
    assert digests == GOLDEN_DIGESTS[run]


class TestAnalyze:
    @pytest.fixture()
    def simulated_pair(self, tmp_path):
        cfg_par = write_cfg(tmp_path / "par.cfg", xi=1.0, seed=11)
        cfg_perp = write_cfg(tmp_path / "perp.cfg", xi=0.0, seed=12)
        cli.main(["simulate", "--config", str(cfg_par), "--out", str(tmp_path / "par")])
        cli.main(["simulate", "--config", str(cfg_perp), "--out", str(tmp_path / "perp")])
        return (
            tmp_path / "par" / "events.csv",
            tmp_path / "perp" / "events.csv",
            cfg_par,
        )

    def test_ideal_visibility_near_expected(self, simulated_pair, tmp_path, capsys):
        par, perp, cfg = simulated_pair
        assert cli.main([
            "analyze", "--par", str(par), "--perp", str(perp),
            "--config", str(cfg), "--out", str(tmp_path / "ana"),
        ]) == 0
        out = capsys.readouterr().out
        assert "V = " in out
        result = json.loads((tmp_path / "ana" / "visibility.json").read_text())
        assert abs(result["v"] - 0.9002) < 3.0 * result["sigma_v"]
        assert result["t_c"] == 245.0
        assert (tmp_path / "ana" / "histogram_par.csv").exists()
        assert (tmp_path / "ana" / "histogram_perp.csv").exists()
        assert result["source_par_config_hash"]

    def test_histogram_csv_layout(self, simulated_pair, tmp_path):
        par, perp, cfg = simulated_pair
        out = tmp_path / "ana"
        assert cli.main([
            "analyze", "--par", str(par), "--perp", str(perp), "--config", str(cfg),
            "--out", str(out),
        ]) == 0
        lines = (out / "histogram_par.csv").read_text().splitlines()
        assert re.fullmatch(r"# config_hash=[0-9a-f]{16}", lines[0])
        assert lines[1:3] == ["# n_triggers=40000", "bin_center_ns,counts,value"]
        # 10 ns bins over +-255 ns; the n_triggers line is what the benchmark parses
        assert len(lines) == 3 + 51
        assert lines[3].startswith("-250,")

    def test_orthogonal_pair_gives_zero(self, simulated_pair, tmp_path):
        _, perp, cfg = simulated_pair
        other = write_cfg(tmp_path / "perp2.cfg", xi=0.0, seed=13)
        cli.main(["simulate", "--config", str(other), "--out", str(tmp_path / "perp2")])
        assert cli.main([
            "analyze", "--par", str(tmp_path / "perp2" / "events.csv"),
            "--perp", str(perp), "--config", str(cfg),
            "--out", str(tmp_path / "ana0"),
        ]) == 0
        result = json.loads((tmp_path / "ana0" / "visibility.json").read_text())
        assert abs(result["v"]) < 3.0 * result["sigma_v"]

    def test_malformed_events_exit_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg")
        bad = event_file(tmp_path / "bad.csv", frame(0, 2, [("A", 0, 50), (3, 1, 50)]))
        assert cli.main([
            "analyze", "--par", str(bad), "--perp", str(bad),
            "--config", str(cfg), "--out", str(tmp_path),
        ]) == 2
        assert f"{bad}: frame 0, click 1: detector code 3" in capsys.readouterr().err

    # an offset of 2**63, read back as -2**63; one past the window; an
    # owner past the frame's triggers; a frame that skips a trigger
    @pytest.mark.parametrize("frames, fault", [
        ([frame(0, 1, [("A", 0, 2**63)])], "frame 0, click 0: offset"),
        ([frame(0, 2, [("A", 0, 5), ("B", 1, 4000)])], "frame 0, click 1: offset 4000"),
        ([frame(0, 2, [("A", 2, 5)])], "frame 0, click 0: owner 2"),
        ([frame(0, 2), frame(3, 1)], "frame 1 starts at trigger 3, not at 2"),
    ], ids=["offset-2**63", "offset-past-window", "owner-past-triggers", "trigger-skipped"])
    def test_out_of_range_events_exit_two(self, tmp_path, capsys, frames, fault):
        cfg = write_cfg(tmp_path / "c.cfg")
        bad = event_file(tmp_path / "bad.csv", *frames)
        assert cli.main([
            "analyze", "--par", str(bad), "--perp", str(bad),
            "--config", str(cfg), "--out", str(tmp_path),
        ]) == 2
        assert f"data format error: {bad}: {fault}" in capsys.readouterr().err

    @pytest.mark.parametrize("head", [
        b"detector,timestamp\nT,0\n",  # 0.2.0's text
        b"\x89HOMSIM\n" + (1).to_bytes(8, "little") + frame(0, 1)[:8],  # 0.3.0's format 1
    ], ids=["text-0.2.0", "format-1"])
    def test_event_file_of_an_older_format_exit_two(self, tmp_path, capsys, head):
        cfg = write_cfg(tmp_path / "c.cfg")
        old = tmp_path / "old.csv"
        old.write_bytes(head)
        assert cli.main([
            "analyze", "--par", str(old), "--perp", str(old),
            "--config", str(cfg), "--out", str(tmp_path / "o"),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data format error: {old}: not a homsim event file of format 2")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("events, sidecar", [
        (frame(0, 1, [(255, 0, 5)]), None),
        (frame(0, 2**16 + 1), None),
        (frame(0, 1), '{"n_records": 2}'),
        (frame(0, 1), "[1]"),
    ], ids=["undecodable-byte", "oversized-field", "record-count", "not-an-object"])
    def test_unreadable_events_or_sidecar_exit_two(self, tmp_path, capsys, events, sidecar):
        bad = event_file(tmp_path / "bad.csv", events)
        if sidecar is not None:
            (tmp_path / "bad.json").write_text(sidecar)
        cfg = write_cfg(tmp_path / "c.cfg")
        rc = cli.main(["analyze", "--par", str(bad), "--perp", str(bad),
                       "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        named = tmp_path / "bad.json" if sidecar == "[1]" else bad
        assert f"data format error: {named}: " in capsys.readouterr().err

    @pytest.mark.parametrize("option, gone", [
        ("--par", "gone.csv"), ("--perp", "gone.csv"), ("--par", "."),
    ], ids=["missing-par", "missing-perp", "par-is-a-directory"])
    def test_missing_event_file_exit_one(self, tmp_path, capsys, option, gone):
        cfg = write_cfg(tmp_path / "c.cfg")
        events = event_file(tmp_path / "events.csv", frame(0, 1))
        files = {"--par": str(events), "--perp": str(events), option: str(tmp_path / gone)}
        out = tmp_path / "out"
        argv = ["analyze", *(x for item in files.items() for x in item), "--config", str(cfg)]
        assert cli.main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: event file not found: {tmp_path / gone}\n"
        assert not out.exists()

    def test_no_coincidences_exit_three(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", n_triggers=200, eta_f=0.0, eta_s=0.0)
        cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "dark")])
        events = tmp_path / "dark" / "events.csv"
        assert cli.main([
            "analyze", "--par", str(events), "--perp", str(events),
            "--config", str(cfg), "--out", str(tmp_path),
        ]) == 3

    def test_file_of_no_frame_exit_two(self, tmp_path, capsys):
        # a run has at least one trigger, so a file of a header alone is cut
        cfg = write_cfg(tmp_path / "c.cfg")
        empty = event_file(tmp_path / "empty.csv")
        assert cli.main([
            "analyze", "--par", str(empty), "--perp", str(empty),
            "--config", str(cfg), "--out", str(tmp_path),
        ]) == 2
        assert f"{empty}: no frame follows the header" in capsys.readouterr().err


def traced_peak(argv):
    """Peak traced memory of one CLI command, in bytes."""
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_and_analyze_memory_does_not_grow_with_run_length(tmp_path, capsys):
    # sparse rates, as in the paper's eta = 0.05 runs: three times the
    # chunks, and so three times the records, in about the same memory
    start, peaks = time.perf_counter(), {}
    for n_chunks in (2, 6):
        cfg = write_cfg(tmp_path / f"{n_chunks}.cfg", n_triggers=n_chunks * montecarlo._CHUNK,
                        eta_f=0.05, eta_s=0.05, bg_rate_a=1e-4, bg_rate_b=1e-4)
        out = tmp_path / str(n_chunks)
        events = str(out / "events.csv")
        peaks[n_chunks] = [
            traced_peak(argv)
            for argv in (["simulate", "--config", str(cfg), "--out", str(out)],
                         ["analyze", "--par", events, "--perp", events,
                          "--config", str(cfg), "--out", str(out / "a")])
        ]
    for short, long in zip(peaks[2], peaks[6]):
        assert long < 1.3 * short, peaks
    assert time.perf_counter() - start < 2.0


def test_layer_functions_run_on_the_main_thread(tmp_path, capsys, monkeypatch):
    # bench/tracing.py's Tracer keeps a single span stack: the layer
    # functions it wraps must run on the thread that called the command,
    # whatever threads generate chunks
    calls = []
    for module, name in [
        (homsim.io, "write_events"), (homsim.io, "read_events"), (montecarlo, "simulate"),
        (homsim.analysis, "pair_events"), (homsim.analysis, "histogram"),
        (homsim.analysis, "estimate_accidentals"), (homsim.analysis, "visibility"),
    ]:
        def on_thread(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append((_name, threading.current_thread() is threading.main_thread()))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, on_thread)
    cfg = write_cfg(tmp_path / "c.cfg", n_triggers=3 * montecarlo._CHUNK, eta_f=0.05,
                    eta_s=0.05, bg_rate_a=1e-4, bg_rate_b=1e-4, subtract_accidentals="true")
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path), "--workers", "2"]
    assert cli.main(argv) == 0
    events = str(tmp_path / "events.csv")
    assert cli.main(["analyze", "--par", events, "--perp", events, "--config", str(cfg),
                     "--out", str(tmp_path / "a")]) == 0
    # analyze bins the files' click lists: it calls neither read_events nor pair_events
    assert {name for name, _ in calls} == {"write_events", "histogram", "estimate_accidentals",
                                           "visibility"}
    assert [call for call in calls if not call[1]] == []


class TestDip:
    def test_scan_with_model_overlay(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg", n_triggers=25_000, dip_t_c=490,
        )
        (tmp_path / "c.cfg").write_text(
            (tmp_path / "c.cfg").read_text() + "delta_t_list = -20, 0, 20\n"
        )
        assert cli.main(["dip", "--config", str(tmp_path / "c.cfg"),
                         "--out", str(tmp_path)]) == 0
        with open(tmp_path / "dip.csv") as fh:
            rows = [r for r in fh.read().splitlines() if not r.startswith("#")]
        assert rows[0] == "delta_t_ns,ratio,sigma,model_ratio"
        assert len(rows) == 4
        payload = json.loads((tmp_path / "dip.json").read_text())
        for point in payload["points"]:
            assert abs(point["ratio"] - point["model"]) < 4.0 * point["sigma"]

    def test_single_point_matches_analyze(self, tmp_path):
        # a one-point scan must agree exactly with simulate+analyze using
        # the same derived seeds
        cfg = write_cfg(tmp_path / "c.cfg", n_triggers=20_000, seed=30, dip_t_c=490)
        with open(tmp_path / "c.cfg", "a") as fh:
            fh.write("delta_t_list = 0\n")
        assert cli.main(["dip", "--config", str(tmp_path / "c.cfg"),
                         "--out", str(tmp_path / "dip")]) == 0
        payload = json.loads((tmp_path / "dip" / "dip.json").read_text())

        par_cfg = write_cfg(tmp_path / "p1.cfg", n_triggers=20_000, xi=1.0, seed=30)
        perp_cfg = write_cfg(tmp_path / "p2.cfg", n_triggers=20_000, xi=0.0, seed=31)
        cli.main(["simulate", "--config", str(par_cfg), "--out", str(tmp_path / "s1")])
        cli.main(["simulate", "--config", str(perp_cfg), "--out", str(tmp_path / "s2")])
        assert cli.main([
            "analyze", "--par", str(tmp_path / "s1" / "events.csv"),
            "--perp", str(tmp_path / "s2" / "events.csv"),
            "--config", str(tmp_path / "c.cfg"), "--out", str(tmp_path / "ana"),
        ]) == 0
        vis = json.loads((tmp_path / "ana" / "visibility.json").read_text())
        assert payload["points"][0]["ratio"] == pytest.approx(
            1.0 - vis["v"], abs=1e-12
        )

    def test_bytes_independent_of_run_and_worker_count(self, tmp_path):
        # two chunks per run, background, offsets, jitter and detuning
        cfg = write_cfg(
            tmp_path / "c.cfg", n_triggers=70_000, eta_f=0.6, eta_s=0.8,
            bg_rate_a=1e-3, bg_rate_b=5e-4, detector_offset_a=3.3,
            detector_offset_b=12, excitation_jitter_sigma=1.5, detuning=2.5,
            subtract_accidentals="true", delta_t_list="-15, 25",
        )
        outputs = []
        for run, workers in (("a", 1), ("b", 1), ("c", 2), ("d", 4)):
            out = tmp_path / run
            assert cli.main(["dip", "--config", str(cfg), "--seed", "5",
                             "--workers", str(workers), "--out", str(out)]) == 0
            outputs.append(((out / "dip.csv").read_bytes(), (out / "dip.json").read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]

    def test_csv_delays_keep_their_digits(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", n_triggers=2000, delta_t_list="1.23456789, 0")
        assert cli.main(["dip", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "dip.csv") as fh:
            rows = csv.DictReader(line for line in fh if not line.startswith("#"))
            delays = [float(row["delta_t_ns"]) for row in rows]
        points = json.loads((tmp_path / "dip.json").read_text())["points"]
        assert delays == [p["delta_t"] for p in points] == [1.23456789, 0.0]

    def test_sub_tick_period_gap_exit_one(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", trigger_period=500.05, window_length=500,
                        delta_t_list=0)
        assert cli.main(["dip", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "one timestamp tick" in capsys.readouterr().err

    def test_window_beyond_int64_ticks_runs(self, tmp_path):
        # 1e306 ns at 1 ps ticks overflows any integer tick count
        cfg = write_cfg(tmp_path / "c.cfg", n_triggers=2000, delta_t_list=0,
                        valid_window=1e306, timestamp_resolution=1)
        assert cli.main(["dip", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "dip.json").exists()

    def test_empty_delta_t_list_is_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", n_triggers=100)
        assert cli.main(["dip", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "delta_t_list" in capsys.readouterr().err


# Analysis parameters that analysis rejects: a window whose half-width
# (t_c, or dip_t_c / 2) is off the 10 ns bin edges or reaches past the
# histogram, a binning of more bins than a histogram may hold, an empty
# wing, one from below |dt| = 0 or one that reaches past the histogram,
# and a validity window that is not finite or is negative.
BAD_ANALYSIS_PARAMETERS = [
    pytest.param({"t_c": 30, "dip_t_c": 60}, "does not align with bin edges",
                 id="window-off-bin-edges"),
    pytest.param({"subtract_accidentals": "true", "wing_low": 200, "wing_high": 100},
                 "wing region must have positive extent", id="inverted-wing"),
    pytest.param({"subtract_accidentals": "true", "wing_low": -10},
                 "wing_low/wing_high: wing (-10, 200) must start at a non-negative |dt|",
                 id="negative-wing"),
    *(pytest.param({"valid_window": value}, "must be finite and non-negative",
                   id=f"valid-window-{value}")
      for value in ("inf", "nan", "-1")),
    pytest.param({"hist_range": "inf"}, "must be finite and give fewer than 2**63 bins",
                 id="hist-range-inf"),
    pytest.param({"bin_width": "1e-300"}, "must be finite and give fewer than 2**63 bins",
                 id="bin-width-tiny"),
    # 2e13 bins: refused before the counts or centres are allocated
    pytest.param({"hist_range": 100000000000005},
                 "bin_width/hist_range: bin_width=10.0 and half_range=100000000000005.0 give "
                 "20000000000001 bins, more than the 16777216 a histogram may hold",
                 id="too-many-bins"),
    pytest.param({"t_c": "inf", "dip_t_c": "inf"}, "must be finite and within 2**63 bins",
                 id="window-inf"),
    pytest.param({"t_c": -5, "dip_t_c": -10}, "selects no bin", id="window-empty"),
    pytest.param({"t_c": 1005, "dip_t_c": 2010}, "is wider than the histogram's half range",
                 id="window-wider-than-histogram"),
    pytest.param({"hist_range": 15}, "is wider than the histogram's half range",
                 id="histogram-narrower-than-window"),
    pytest.param({"subtract_accidentals": "true", "wing_high": 300},
                 "wing_low/wing_high: wing (100, 300) is wider than the histogram's half range (255)",
                 id="wing-wider-than-histogram"),
]


def _must_not_run(*args, **kwargs):
    raise AssertionError("analysis parameters are checked before any events are made or read")


class TestAnalysisParameterErrors:
    @pytest.mark.parametrize("overrides, message", BAD_ANALYSIS_PARAMETERS)
    def test_analyze_reports_config_error(self, tmp_path, capsys, monkeypatch,
                                          overrides, message):
        cfg = write_cfg(tmp_path / "c.cfg", n_triggers=2000, **overrides)
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(cli.io, "read_frames", _must_not_run)
        events = str(tmp_path / "events.csv")
        assert cli.main(["analyze", "--par", events, "--perp", events,
                         "--config", str(cfg), "--out", str(tmp_path / "a")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    @pytest.mark.parametrize("overrides, message", BAD_ANALYSIS_PARAMETERS)
    def test_dip_reports_config_error(self, tmp_path, capsys, monkeypatch, overrides, message):
        monkeypatch.setattr(cli.montecarlo, "simulate_histograms", _must_not_run)
        cfg = write_cfg(tmp_path / "c.cfg", n_triggers=2000, delta_t_list=0, **overrides)
        assert cli.main(["dip", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err


@pytest.mark.parametrize("command, cfg_seed", [
    (["simulate"], -1),
    (["dip", "--seed", "-5"], 11),
], ids=["simulate-config-seed", "dip-seed-option"])
def test_negative_seed_exits_one(tmp_path, capsys, command, cfg_seed):
    cfg = write_cfg(tmp_path / "c.cfg", n_triggers=100, seed=cfg_seed, delta_t_list=0)
    out = tmp_path / "out"
    assert cli.main([*command, "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error: seed must be non-negative")
    assert not out.exists()


@pytest.mark.parametrize("command", [["simulate"], ["dip"]], ids=["simulate", "dip"])
def test_ticks_beyond_int64_exit_one(tmp_path, capsys, command):
    # 20 triggers 1e18 ns apart need 1.6e20 ticks of 125 ps
    cfg = write_cfg(tmp_path / "c.cfg", n_triggers=20, trigger_period=1e18, delta_t_list=0)
    out = tmp_path / "out"
    assert cli.main([*command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "2**63" in err
    assert not out.exists()


@pytest.mark.parametrize("rate", ["1e19", "9223372036854775807", "1e308", "9" * 30])
@pytest.mark.parametrize("key", ["bg_rate_a", "bg_rate_b"])
@pytest.mark.parametrize("command", [["simulate"], ["dip"]], ids=["simulate", "dip"])
def test_background_rate_beyond_bound_exits_one(tmp_path, capsys, command, key, rate):
    # rates that ask numpy's Poisson sampler for more than it can draw
    cfg = write_cfg(tmp_path / "c.cfg", n_triggers=100, delta_t_list=0, **{key: rate})
    out = tmp_path / "out"
    assert cli.main([*command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key} * window_length, the mean background clicks")
    assert err.count("\n") == 1
    assert not out.exists()


def test_delay_beyond_bound_exits_one(tmp_path, capsys):
    # a scan point whose delay would overflow the outcome law's phase
    cfg = write_cfg(tmp_path / "c.cfg", n_triggers=100, detuning=1e6, delta_t_list="0, 1e305")
    out = tmp_path / "out"
    assert cli.main(["dip", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: delta_t must lie in [-1e+150, 1e+150] ns, got 1e+305\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize("command", ["simulate", "dip"])
def test_workers_below_one_exit_one(tmp_path, capsys, command, workers):
    cfg = write_cfg(tmp_path / "c.cfg", n_triggers=100, delta_t_list=0)
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out), "--workers", workers]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"config error: --workers must be at least 1, got {workers}\n"
    assert not out.exists()


def test_all_is_exactly_the_public_names():
    public = {name for name, value in vars(homsim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert homsim.__all__ == sorted(set(homsim.__all__))
    assert set(homsim.__all__) == public
    # 0.4.0 added simulate_frames, the frames that write_events takes
    assert len(homsim.__all__) == 30


def test_numpy_is_the_only_runtime_dependency():
    # scipy serves the tests, the benchmark and
    # interference.coincidence_probability_numeric alone. Python 3.10 has
    # no tomllib; pytest depends on tomli there.
    try:
        import tomllib
    except ModuleNotFoundError:
        import tomli as tomllib
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.23"]
    with_scipy = {extra: [r for r in reqs if r.startswith("scipy")]
                  for extra, reqs in project["optional-dependencies"].items()}
    assert {extra: reqs for extra, reqs in with_scipy.items() if reqs} == {"test": ["scipy>=1.8"]}


def test_default_paths_do_not_import_scipy(tmp_path):
    # scipy is imported only by coincidence_probability_numeric; every CLI
    # command, detuned oracle included, and the rest of the analytic model
    # run on closed forms.
    scipy_imports = [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("homsim/*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy")
        or isinstance(node, ast.Import) and any(a.name.startswith("scipy") for a in node.names)
    ]
    tree = ast.parse((SRC / "homsim" / "interference.py").read_text())
    numeric = next(node for node in ast.walk(tree)
                   if getattr(node, "name", None) == "coincidence_probability_numeric")
    assert [name for name, _ in scipy_imports] == ["interference.py"]
    assert numeric.lineno < scipy_imports[0][1] <= numeric.end_lineno

    script = textwrap.dedent("""
        import sys
        import numpy as np
        import homsim
        from homsim import cli

        base = "n_triggers = 2000\\neta_f = 1\\neta_s = 1\\ndelta_t_list = 0\\n"
        with open("par.cfg", "w") as fh:
            fh.write(base)
        with open("perp.cfg", "w") as fh:
            fh.write(base + "xi = 0\\n")
        runs = [
            ["--dump-config"],
            ["oracle", "--detuning", "2", "--out", "oracle"],
            ["simulate", "--config", "par.cfg", "--out", "par"],
            ["simulate", "--config", "perp.cfg", "--out", "perp"],
            ["analyze", "--par", "par/events.csv", "--perp", "perp/events.csv",
             "--config", "par.cfg", "--out", "analyze"],
            ["dip", "--config", "par.cfg", "--out", "dip"],
        ]
        for argv in runs:
            assert cli.main(argv) == 0, argv

        pair = homsim.SourcePair(homsim.Envelope(13.61), homsim.Envelope(26.18, detuning=2.0))
        ts = np.linspace(0.0, 50.0, 11)
        homsim.amplitude(pair.env_s, ts)
        homsim.sample_emission_time(pair.env_s, np.linspace(0.0, 0.9, 10))
        assert homsim.coincidence_density(pair, 3.0) > 0.0
        homsim.expected_histogram(
            homsim.ExperimentConfig(n_triggers=10, xi=0.0, detuning=2.0, bg_rate_a=1e-4))
        assert "scipy" not in sys.modules

        numeric = homsim.interference.coincidence_probability_numeric(pair)
        assert abs(numeric - homsim.coincidence_probability(pair)) < 1e-8
        assert "scipy" in sys.modules
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
