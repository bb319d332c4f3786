import csv
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from homsim import (
    Envelope,
    SourcePair,
    cli,
    coincidence_density,
    dip_ratio,
    visibility_closed_form,
)

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
            (name, x, coincidence_density(SourcePair(env_f, env_s, xi), x, force_quadrature=True))
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
        with open(tmp_path / "events.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 1000
        assert all(r[0] == "T" for r in rows)

    def test_background_counts_near_poisson_mean(self, tmp_path):
        rate, n = 2e-4, 20_000
        cfg = write_cfg(
            tmp_path / "c.cfg", n_triggers=n, eta_f=0.0, eta_s=0.0,
            bg_rate_a=rate, bg_rate_b=rate,
        )
        assert cli.main([
            "simulate", "--config", str(cfg), "--out", str(tmp_path)
        ]) == 0
        with open(tmp_path / "events.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        mean = rate * 500.0 * n
        for det in ("A", "B"):
            count = sum(1 for r in rows if r[0] == det)
            assert abs(count - mean) < 3.0 * np.sqrt(mean)

    def test_sidecar_metadata(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", n_triggers=500)
        assert cli.main([
            "simulate", "--config", str(cfg), "--out", str(tmp_path)
        ]) == 0
        meta = json.loads((tmp_path / "events.json").read_text())
        assert meta["resolution_ps"] == 125.0
        assert meta["config"]["n_triggers"] == 500
        assert len(meta["config_hash"]) == 16

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
        bad = tmp_path / "bad.csv"
        bad.write_text("detector,timestamp\nT,0\nX,50\n")
        assert cli.main([
            "analyze", "--par", str(bad), "--perp", str(bad),
            "--config", str(cfg), "--out", str(tmp_path),
        ]) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("body", ["T,0\nA,9223372036854775808\n", "T,50\nA,40\n"])
    def test_out_of_range_or_unsorted_events_exit_two(self, tmp_path, capsys, body):
        cfg = write_cfg(tmp_path / "c.cfg")
        bad = tmp_path / "bad.csv"
        bad.write_text("detector,timestamp\n" + body)
        assert cli.main([
            "analyze", "--par", str(bad), "--perp", str(bad),
            "--config", str(cfg), "--out", str(tmp_path),
        ]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "line 3" in err

    @pytest.mark.parametrize("events, sidecar", [
        (b"detector,timestamp\nT,0\nA,5\xff\n", None),
        (b"detector,timestamp\nT,0\nA," + b"1" * 200_000 + b"\n", None),
        (b"detector,timestamp\nT,0\n", '{"n_records": 1}'),
        (b"detector,timestamp\nT,0\n", "[1]"),
    ], ids=["undecodable-byte", "oversized-field", "no-resolution", "not-an-object"])
    def test_unreadable_events_or_sidecar_exit_two(self, tmp_path, capsys, events, sidecar):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(events)
        if sidecar is not None:
            (tmp_path / "bad.json").write_text(sidecar)
        cfg = write_cfg(tmp_path / "c.cfg")
        rc = cli.main(["analyze", "--par", str(bad), "--perp", str(bad),
                       "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        named = bad if sidecar is None else tmp_path / "bad.json"
        assert f"data format error: {named}: " in capsys.readouterr().err

    def test_no_coincidences_exit_three(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", n_triggers=200, eta_f=0.0, eta_s=0.0)
        cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "dark")])
        events = tmp_path / "dark" / "events.csv"
        assert cli.main([
            "analyze", "--par", str(events), "--perp", str(events),
            "--config", str(cfg), "--out", str(tmp_path),
        ]) == 3

    def test_no_triggers_exit_three(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg")
        empty = tmp_path / "empty.csv"
        empty.write_text("detector,timestamp\nA,100\n")
        assert cli.main([
            "analyze", "--par", str(empty), "--perp", str(empty),
            "--config", str(cfg), "--out", str(tmp_path),
        ]) == 3


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
# (t_c, or dip_t_c / 2) is off the 10 ns bin edges, an empty wing, and a
# validity window that is not finite or is negative.
BAD_ANALYSIS_PARAMETERS = [
    pytest.param({"t_c": 30, "dip_t_c": 60}, "does not align with bin edges",
                 id="window-off-bin-edges"),
    pytest.param({"subtract_accidentals": "true", "wing_low": 200, "wing_high": 100},
                 "wing region must have positive extent", id="inverted-wing"),
    *(pytest.param({"valid_window": value}, "must be finite and non-negative",
                   id=f"valid-window-{value}")
      for value in ("inf", "nan", "-1")),
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
        monkeypatch.setattr(cli.io, "read_events", _must_not_run)
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


def test_default_paths_do_not_import_scipy(tmp_path):
    # scipy is imported only by the quadrature cross-checks; every CLI
    # command, detuned oracle included, runs on closed forms.
    script = textwrap.dedent("""
        import sys
        import homsim
        from homsim import cli

        base = "n_triggers = 2000\\neta_f = 1\\neta_s = 1\\ndelta_t_list = 0\\n"
        with open("par.cfg", "w") as fh:
            fh.write(base)
        with open("perp.cfg", "w") as fh:
            fh.write(base + "xi = 0\\n")
        runs = [
            ["oracle", "--detuning", "2", "--out", "oracle"],
            ["simulate", "--config", "par.cfg", "--out", "par"],
            ["simulate", "--config", "perp.cfg", "--out", "perp"],
            ["analyze", "--par", "par/events.csv", "--perp", "perp/events.csv",
             "--config", "par.cfg", "--out", "analyze"],
            ["dip", "--config", "par.cfg", "--out", "dip"],
        ]
        for argv in runs:
            assert cli.main(argv) == 0, argv
        assert "scipy" not in sys.modules

        pair = homsim.SourcePair(homsim.Envelope(13.61), homsim.Envelope(26.18, detuning=2.0))
        numeric = homsim.coincidence_probability_numeric(pair)
        assert abs(numeric - homsim.coincidence_probability(pair)) < 1e-8
        assert abs(homsim.norm(homsim.Envelope(5.0)) - 1.0) < 1e-6
        assert "scipy" in sys.modules
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
