"""Tests of the benchmark's own code: python3 -m pytest bench"""

import json
import re
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_names_units_and_bounds():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), names
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(0 < len(p) <= 200 and re.fullmatch(r"[A-Za-z0-9_./-]+", p) for p in SPEC["paths"])
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_layer_metrics_cover_per_layer_spec():
    produced = set(tracing.layer_metrics([], {}))
    produced |= {"wavepacket.amplitude_calls", "trace.overhead_frac"}
    assert produced == {m["name"] for m in SPEC["per_layer"]}


def span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent)


def test_self_time_subtracts_children_once():
    spans = [
        span("cli.pass", 0.0, 10.0),
        span("cli.dip", 1.0, 9.0, 0),
        span("montecarlo.simulate", 2.0, 5.0, 1),
        span("analysis.pair_events", 5.0, 6.5, 1),
        span("analysis.dip_curve", 7.0, 8.0, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.5, 3.0, 1.5, 1.0])
    m = tracing.layer_metrics(spans, {})
    assert m["cli.self_s"] == pytest.approx(4.5)
    assert m["montecarlo.simulate_s"] == pytest.approx(3.0)
    assert m["analysis.reduce_s"] == pytest.approx(1.0)
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    assert tracing.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    spans = [span("cli.pass", 0.0, 10.0), span("io.read_events", 1.0, 4.0, 0),
             span("io.read_events", 3.0, 5.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(6.0)


def test_tracer_folds_calls_inside_one_layer():
    mod = types.ModuleType("homsim.interference")
    mod.coincidence_density = lambda pair, dt: dt
    mod.coincidence_probability_numeric = lambda pair: sum(
        mod.coincidence_density(pair, dt) for dt in range(4))
    targets = [(mod, "coincidence_density"), (mod, "coincidence_probability_numeric")]
    tracer = tracing.Tracer()
    restore = tracer.install(targets)
    with tracer.span("cli.pass"):
        assert mod.coincidence_density(None, 2.0) == 2.0
        assert mod.coincidence_probability_numeric(None) == 6
    restore()
    assert [s.name for s in tracer.spans] == [
        "cli.pass", "interference.coincidence_density",
        "interference.coincidence_probability_numeric"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert tracer.counts == {"interference.coincidence_density_calls": 1}
    assert mod.coincidence_density(None, 1.0) == 1.0 and not hasattr(
        mod.coincidence_density, "__wrapped__")


def test_pass_seeds_are_distinct_and_leave_room_for_a_dip_scan():
    seeds = [run.pass_seed(s, k) for s in range(3) for k in range(50)]
    assert len(set(seeds)) == len(seeds)
    assert min(b - a for a, b in zip(seeds, seeds[1:])) >= 18


def test_normalise_scales_by_the_mean_of_the_surrounding_references():
    ref = reference.REF_S
    # a host running at half speed doubles the operation and its references alike
    assert reference.normalise([2.0, 4.0], [2 * ref, 2 * ref, 2 * ref]) == pytest.approx([1.0, 2.0])
    assert reference.normalise([3.0], [ref, 2 * ref]) == pytest.approx([2.0])
    with pytest.raises(ValueError):
        reference.normalise([1.0, 1.0], [ref, ref])


def test_calibrated_pass_times_each_operation_between_references(tmp_path, monkeypatch):
    refs = iter([0.01, 0.02, 0.04])
    monkeypatch.setattr(reference, "ref_time", lambda: next(refs))

    class Two:
        def ops(self, work, out, seed):
            return [workloads.Op("a", call=lambda: 1), workloads.Op("b", call=lambda: 2)]

        def cleanup(self, out):
            pass

    rec = run.run_pass(Two(), tmp_path, 0, "timed", 0, calibrate=True)
    assert rec.errors == {} and rec.values == {"a": 1, "b": 2}
    assert rec.refs == [0.01, 0.02, 0.04] and len(rec.op_s) == 2
    assert rec.wall_s == pytest.approx(sum(rec.op_s))
    assert rec.norm_s == pytest.approx(
        rec.op_s[0] * reference.REF_S / 0.015 + rec.op_s[1] * reference.REF_S / 0.03)


def test_quartiles_follow_statistics_quantiles():
    assert compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert compare.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert compare.spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx(
        (10.75 - 9.25) / 10.0)


PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.05, 9.95]


def pairs_of(parent, change):
    return list(zip(parent, change))


def test_gain_needs_nine_in_ten_wins_and_a_gap_beyond_the_parent_iqr():
    change = [v - 1.0 for v in PARENT]
    assert compare.verdict(PARENT, change, pairs_of(PARENT, change), "lower", 0.1) == "gain"
    # 8 of 10 pairs won: not a gain, and not worse either
    mixed = change[:8] + [v + 0.5 for v in PARENT[8:]]
    assert compare.verdict(PARENT, mixed, pairs_of(PARENT, mixed), "lower", 0.1) == "same"
    # every pair won, but by less than the parent's interquartile distance
    small = [v - 0.01 for v in PARENT]
    assert compare.verdict(PARENT, small, pairs_of(PARENT, small), "lower", 0.1) == "same"
    # a gain needs at least ten pairs
    assert compare.verdict(PARENT, change, pairs_of(PARENT, change)[:9], "lower", 0.1) == "same"
    # "higher is better" flips the direction
    assert compare.verdict(PARENT, change, pairs_of(PARENT, change), "higher", 0.05) == "regression"


def test_regression_beyond_the_bound():
    slower = [v * 1.2 for v in PARENT]
    assert compare.verdict(PARENT, slower, pairs_of(PARENT, slower), "lower", 0.1) == "regression"
    slightly = [v * 1.05 for v in PARENT]
    assert compare.verdict(PARENT, slightly, pairs_of(PARENT, slightly), "lower", 0.1) == "same"


def test_wide_spread_is_unresolved_unless_every_change_run_is_better():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    same_noise = [v + 0.1 for v in noisy]
    assert compare.verdict(noisy, same_noise, pairs_of(noisy, same_noise), "lower", 0.1) == "unresolved"
    separated = [v - 11.0 if v > 11.0 else v * 0.3 for v in noisy]
    assert max(separated) < min(noisy)
    assert compare.verdict(noisy, separated, [], "lower", 0.1) == "better"


def test_compare_reports_each_workload_and_metric(tmp_path):
    for side, scale in (("parent", 1.0), ("change", 0.5)):
        d = tmp_path / side
        d.mkdir()
        for workload in ("dip_dense", "oracle_detuned"):
            for seed in range(10):
                metrics = {m["name"]: {"value": scale * (10.0 + 0.01 * seed), "unit": m["unit"]}
                           for m in SPEC["end_to_end"]}
                rec = {"workload": workload, "seed": seed, "metrics": metrics}
                (d / f"{workload}.seed{seed}.trace0.json").write_text(json.dumps(rec))
    rows = compare.compare(compare.load(tmp_path / "parent"), compare.load(tmp_path / "change"), SPEC)
    assert len(rows) == 2 * len(SPEC["end_to_end"])
    by_metric = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
    assert by_metric[("dip_dense", "wall_norm_s")] == "gain"
    assert by_metric[("dip_dense", "items_per_norm_s")] == "regression"


def test_independent_closed_forms_match_homsim():
    import homsim as h

    perp = h.SourcePair(h.Envelope(workloads.TAU_F), h.Envelope(workloads.TAU_S), 0.0)
    for dt in (-100.0, -7.5, 0.0, 3.0, 60.0):
        assert workloads.g_perp_model(dt) == pytest.approx(h.coincidence_density(perp, dt), abs=1e-15)
    for d in workloads.DIP_DELTAS:
        assert workloads.dip_model(d) == pytest.approx(
            h.dip_ratio(d, workloads.TAU_S, workloads.TAU_F), abs=1e-12)


def test_dip_check_flags_a_point_off_the_model(tmp_path):
    dip = WORKLOADS["dip_dense"]
    points = [{"delta_t": d, "ratio": workloads.dip_model(d), "sigma": 0.01,
               "model": workloads.dip_model(d)} for d in workloads.DIP_DELTAS]
    (tmp_path / "dip.json").write_text(json.dumps({"points": points}))
    assert dip.check(tmp_path, 0, {}) == {}
    points[3]["ratio"] += 0.06
    (tmp_path / "dip.json").write_text(json.dumps({"points": points}))
    assert "dip" in dip.check(tmp_path, 0, {})
