import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homsim import (
    AccidentalEstimate,
    DataFormatError,
    EventStream,
    ExperimentConfig,
    InsufficientStatisticsError,
    dip_curve,
    dip_ratio,
    estimate_accidentals,
    histogram,
    pair_events,
    read_events,
    simulate,
    simulate_frames,
    simulate_histograms,
    visibility,
    visibility_closed_form,
    write_events,
)
from homsim import analysis
from homsim.analysis import (
    CoincidenceHistogram,
    histogram_frames,
    pair_clicks,
)
from homsim.io import DET_A, DET_B, DET_T, read_frames
from homsim.montecarlo import _CHUNK
from helpers import smallest_period, stream_from_records

TAU_S, TAU_F = 26.18, 13.61


def ns(t):
    # 125 ps ticks
    return int(round(t * 8))


class TestPairEvents:
    def test_basic_pair(self):
        s = stream_from_records([("T", 0), ("A", ns(50)), ("B", ns(60))])
        p = pair_events(s)
        assert p.n_triggers == 1
        assert p.valid.tolist() == [True]
        assert p.delta_ts.tolist() == [-10.0]

    def test_sole_click_outside_window_invalid(self):
        s = stream_from_records([("T", 0), ("A", ns(90))])
        p = pair_events(s)
        assert p.valid.tolist() == [False]
        assert p.delta_ts.size == 0
        assert p.n_triggers == 1

    def test_click_on_window_edge_is_valid(self):
        s = stream_from_records([("T", 0), ("A", ns(85))])
        assert pair_events(s).valid.tolist() == [True]

    def test_empty_sequence_counts_in_normalization(self):
        s = stream_from_records([("T", 0), ("T", 8000), ("A", 8000 + ns(10))])
        p = pair_events(s)
        assert p.n_triggers == 2
        assert p.valid.tolist() == [False, True]

    def test_pairing_uses_clicks_beyond_validity_window(self):
        # validity comes from the early A click; the late B click still
        # pairs even though it misses the 85 ns gate
        s = stream_from_records([("T", 0), ("A", ns(50)), ("B", ns(120))])
        p = pair_events(s)
        assert p.valid.tolist() == [True]
        assert p.delta_ts.tolist() == [-70.0]

    def test_first_click_semantics(self):
        s = stream_from_records(
            [("T", 0), ("B", ns(5)), ("A", ns(30)), ("B", ns(40)), ("A", ns(70))]
        )
        p = pair_events(s)
        assert p.first_a.tolist() == [ns(30)]
        assert p.first_b.tolist() == [ns(5)]
        assert p.delta_ts.tolist() == [25.0]

    def test_clicks_attach_to_most_recent_trigger(self):
        s = stream_from_records(
            [("A", 100), ("T", 800), ("A", 800 + ns(20)), ("T", 8800), ("B", 8800 + ns(30))]
        )
        p = pair_events(s)
        # the click before the first trigger is dropped entirely: it is
        # neither trigger 0's first A click nor wrapped onto the last trigger
        assert p.first_a.tolist() == [ns(20), -1]
        assert p.first_b.tolist() == [-1, ns(30)]
        assert p.valid.tolist() == [True, True]
        assert p.delta_ts.size == 0

    @pytest.mark.parametrize("valid_window", [1e306, 2**63 / 1000.0])
    def test_window_beyond_int64_ticks_keeps_every_click(self, valid_window):
        # at 1 ps ticks each window spans at least 2**63 ticks
        # of two triggers, at ticks 0 and 2**62
        clicks = (
            np.array([2**63 - 2, 2**62 - 1, 5]),
            np.array([0, 1, 1]),
            np.array([DET_A, DET_A, DET_B], dtype=np.uint8),
        )
        p = pair_clicks(2, clicks, valid_window, resolution=1.0)
        assert p.valid.tolist() == [True, True]
        assert p.first_a.tolist() == [2**63 - 2, 2**62 - 1]

    def test_click_on_largest_tick_is_a_click(self):
        # the largest offset too: -1 marks no click, and no offset reaches it
        s = stream_from_records([("T", 0), ("A", 2**63 - 50), ("B", 2**63 - 1)])
        p = pair_events(s)
        assert p.first_a.tolist() == [2**63 - 50]
        assert p.first_b.tolist() == [2**63 - 1]

    def test_unsorted_stream_rejected(self):
        s = stream_from_records([("T", 100), ("A", 50)])
        with pytest.raises(DataFormatError):
            pair_events(s)

    def test_per_trigger_first_clicks_and_validity(self):
        s = stream_from_records(
            [("T", 0), ("A", ns(50)), ("B", ns(60)), ("T", 8000)]
        )
        p = pair_events(s)
        assert p.first_a.tolist() == [ns(50), -1]
        assert p.first_b.tolist() == [ns(60), -1]
        assert p.valid.tolist() == [True, False]

    def test_exactness_on_composite_stream(self):
        # several triggers exercising every branch at once
        s = stream_from_records(
            [
                ("T", 0),
                ("A", ns(10)),
                ("B", ns(22)),
                ("T", 8000),
                ("B", 8000 + ns(84)),
                ("T", 16000),
                ("A", 16000 + ns(86)),
                ("B", 16000 + ns(90)),
                ("T", 24000),
                ("A", 24000 + ns(3)),
                ("A", 24000 + ns(5)),
                ("B", 24000 + ns(100)),
            ]
        )
        p = pair_events(s)
        assert p.n_triggers == 4
        assert p.valid.tolist() == [True, True, False, True]
        assert p.paired.tolist() == [True, False, False, True]
        assert p.delta_ts.tolist() == [-12.0, -97.0]


def reference_first_per_trigger(ticks, owner, trigger_ticks):
    first = np.full(trigger_ticks.size, -1, dtype=np.int64)
    uniq, pos = np.unique(owner, return_index=True)
    # stream sorted, so first occurrence is earliest
    first[uniq] = ticks[pos] - trigger_ticks[uniq]
    return first


def reference_pair_events(stream, valid_window):
    """pair_events as it was when the first click of a trigger was its
    first occurrence in the sorted stream (found with np.unique), kept as
    the reference for the order-free pairing kernel, its first clicks
    made offsets from their triggers. Returns (valid, first_a, first_b)."""
    det = stream.detectors
    ts = stream.timestamps
    trigger_ticks = ts[det == DET_T]
    n = trigger_ticks.size

    window_ticks = int(np.floor(valid_window * 1000.0 / stream.resolution + 1e-9))
    valid = np.zeros(n, dtype=bool)

    sides = []
    for code in (DET_A, DET_B):
        clicks = ts[det == code]
        idx = np.searchsorted(trigger_ticks, clicks, side="right") - 1
        keep = idx >= 0
        ticks, owner = clicks[keep], idx[keep]
        near = (ticks - trigger_ticks[owner]) <= window_ticks
        valid[owner[near]] = True
        sides.append((ticks, owner))

    (a_ticks, a_owner), (b_ticks, b_owner) = sides
    return (
        valid,
        reference_first_per_trigger(a_ticks, a_owner, trigger_ticks),
        reference_first_per_trigger(b_ticks, b_owner, trigger_ticks),
    )


@st.composite
def sorted_streams(draw):
    """Streams sorted by tick, detectors in any order on a tied tick:
    clicks before the first trigger, triggers sharing a tick, triggers
    without clicks and several clicks per trigger all occur."""
    records = draw(st.lists(
        st.tuples(st.sampled_from([DET_T, DET_A, DET_B]), st.integers(0, 2000)),
        max_size=120,
    ))
    det = np.array([r[0] for r in records], dtype=np.uint8)
    ticks = np.array([r[1] for r in records], dtype=np.int64)
    order = np.argsort(ticks, kind="stable")
    resolution = draw(st.sampled_from([125.0, 1.0, 1000.0]))
    return EventStream(det[order], ticks[order], resolution)


@settings(max_examples=200, deadline=None)
@given(stream=sorted_streams(), valid_window=st.sampled_from([0.0, 0.125, 3.0, 85.0, 1e4]))
# a click followed by a trigger on its own tick: the trigger claims it
@example(
    stream=stream_from_records([("T", 0), ("A", 100), ("T", 100), ("B", 150)]), valid_window=0.0
)
# by two triggers on its tick: the second claims both clicks before it
@example(
    stream=stream_from_records(
        [("T", 0), ("B", 100), ("A", 100), ("T", 100), ("T", 100), ("A", 120)]
    ),
    valid_window=0.0,
)
# clicks before the first trigger, the last of them on its tick
@example(
    stream=stream_from_records([("A", 3), ("B", 5), ("A", 10), ("T", 10), ("B", 12)]),
    valid_window=0.125,
)
@example(stream=stream_from_records([("A", 3), ("B", 5), ("B", 5)]), valid_window=85.0)
def test_pair_events_matches_reference(stream, valid_window):
    valid, first_a, first_b = reference_pair_events(stream, valid_window)
    p = pair_events(stream, valid_window)
    assert p.valid.tobytes() == valid.tobytes()
    assert p.first_a.tobytes() == first_a.tobytes()
    assert p.first_b.tobytes() == first_b.tobytes()
    assert p.resolution == stream.resolution


MAX_TICK = 2**63 - 1


def reference_pair_clicks(trigger_ticks, sides, valid_window, resolution):
    """pair_clicks as a per-trigger loop over Python ints. `sides` holds
    each detector's clicks as (owner, tick) pairs in any order. Returns
    (valid, first_a, first_b, delta_ts), the first clicks as offsets from
    their triggers."""
    window_ticks = math.floor(valid_window * 1000.0 / resolution + 1e-9)
    n = len(trigger_ticks)
    valid = [False] * n
    firsts = []
    for clicks in sides:
        first = [-1] * n
        for owner, tick in clicks:
            offset = tick - trigger_ticks[owner]
            if offset <= window_ticks:
                valid[owner] = True
            if first[owner] == -1 or offset < first[owner]:
                first[owner] = offset
        firsts.append(first)
    delta_ts = [
        float(a - b) * (resolution / 1000.0)
        for v, a, b in zip(valid, *firsts)
        if v and a >= 0 and b >= 0
    ]
    return valid, firsts[0], firsts[1], delta_ts


@st.composite
def click_sets(draw):
    """Trigger ticks and each side's clicks as (owner, tick) lists: several
    clicks of one trigger, triggers without clicks, an empty side and
    clicks on the largest tick all occur. A side's clicks come shuffled,
    or as up to three blocks each sorted by owner, as the chunk generator
    hands over its photons and its background."""
    base = draw(st.sampled_from([0, MAX_TICK - 3000]))
    trigger_ticks = [base + t for t in sorted(draw(st.lists(st.integers(0, 2000), max_size=12)))]
    sides = []
    for _ in range(2):
        offsets = [] if not trigger_ticks else draw(st.lists(st.tuples(
            st.integers(0, len(trigger_ticks) - 1),
            st.one_of(st.integers(0, 1000), st.none()),  # None: the largest tick
        ), max_size=30))
        clicks = [
            (owner, MAX_TICK if off is None else trigger_ticks[owner] + off)
            for owner, off in offsets
        ]
        if draw(st.booleans()):
            clicks = draw(st.permutations(clicks))
        else:
            cuts = sorted(draw(st.lists(st.integers(0, len(clicks)), max_size=2)))
            clicks = [
                click for lo, hi in zip([0, *cuts], [*cuts, len(clicks)])
                for click in sorted(clicks[lo:hi], key=lambda click: click[0])
            ]
        sides.append(clicks)
    return trigger_ticks, sides


@settings(max_examples=300, deadline=None)
@given(
    case=click_sets(),
    mix=st.one_of(st.none(), st.randoms(use_true_random=False)),
    valid_window=st.sampled_from([0.0, 0.125, 3.0, 85.0, 1e4]),
    resolution=st.sampled_from([125.0, 1.0, 1000.0]),
)
@example(  # an empty side, a trigger without clicks and a click on the largest tick
    case=(
        [MAX_TICK - 3000, MAX_TICK - 2000, MAX_TICK - 10],
        [[(0, MAX_TICK - 2990), (2, MAX_TICK), (0, MAX_TICK - 2995)], []],
    ),
    mix=None, valid_window=0.125, resolution=125.0,
)
def test_pair_clicks_matches_per_trigger_loop(case, mix, valid_window, resolution):
    trigger_ticks, sides = case
    # one click list: A's clicks then B's, or, given `mix`, shuffled with
    # A and B interleaved
    clicks = [
        (owner, tick, code) for code, side in zip((DET_A, DET_B), sides) for owner, tick in side
    ]
    if mix is not None:
        mix.shuffle(clicks)
    offsets = np.array([tick - trigger_ticks[owner] for owner, tick, _ in clicks], dtype=np.int64)
    owners = np.array([owner for owner, _, _ in clicks], dtype=np.int64)
    detectors = np.array([code for _, _, code in clicks], dtype=np.uint8)
    p = pair_clicks(len(trigger_ticks), (offsets, owners, detectors), valid_window, resolution)
    valid, first_a, first_b, delta_ts = reference_pair_clicks(
        trigger_ticks, sides, valid_window, resolution
    )
    assert p.valid.tolist() == valid
    assert p.first_a.tolist() == first_a
    assert p.first_b.tolist() == first_b
    assert p.delta_ts.tobytes() == np.array(delta_ts, dtype=float).tobytes()


# Runs whose event files must read back as the run: chunk edges one
# trigger either side of a whole chunk and a few past two; one and two
# generator threads; back-to-back windows, one tick apart; eta 0 and 1,
# with background, both detector offsets and jitter; and a 5e6 ns window
# at 1 ps, whose 5e9 ticks pass 2**32
ROUND_TRIPS = [
    (dict(n_triggers=_CHUNK - 1, eta_f=0.0, eta_s=0.0, bg_rate_a=2e-3, bg_rate_b=1e-3,
          detector_offset_a=20.0, detector_offset_b=7.5), 1, 85.0),
    (dict(n_triggers=_CHUNK, eta_f=1.0, eta_s=1.0, excitation_jitter_sigma=1.5, delta_t=-7.0,
          detuning=2.0, bg_rate_a=1e-3, bg_rate_b=1e-3), 2, 85.0),
    (dict(n_triggers=_CHUNK + 1, trigger_period=smallest_period(500.0, 125.0), eta_f=0.5,
          eta_s=0.5, bg_rate_a=2e-3, bg_rate_b=2e-3, detector_offset_a=60.0,
          detector_offset_b=3.3), 2, 1e4),
    (dict(n_triggers=2 * _CHUNK + 7, trigger_period=smallest_period(500.0, 1.0), eta_f=1.0,
          eta_s=0.0, bg_rate_a=1e-3, bg_rate_b=2e-3, detector_offset_b=12.0,
          excitation_jitter_sigma=2.5, timestamp_resolution=1.0), 1, 85.0),
    (dict(n_triggers=3000, window_length=5e6, trigger_period=smallest_period(5e6, 1.0),
          eta_f=0.5, eta_s=0.5, bg_rate_a=1e-6, bg_rate_b=1e-6, detector_offset_a=20.0,
          timestamp_resolution=1.0), 2, 1e7),
]


@pytest.mark.parametrize("fields, workers, valid_window", ROUND_TRIPS,
                         ids=["chunk-1-dark", "chunk-eta-1-jitter", "chunk+1-back-to-back",
                              "two-chunks-1ps", "window-past-2**32-ticks"])
def test_event_file_reads_back_as_the_run(tmp_path, fields, workers, valid_window):
    config = ExperimentConfig(seed=21, **fields)
    path = write_events(simulate_frames(config, workers), tmp_path / "events.csv")
    # record for record the stream of `simulate`
    stream, want = read_events(path), simulate(config, workers)
    assert stream.resolution == want.resolution
    assert stream.detectors.tobytes() == want.detectors.tobytes()
    assert stream.timestamps.tobytes() == want.timestamps.tobytes()
    # and `homsim analyze`'s histogram is `homsim dip`'s and the stream's
    binning = (valid_window, 10.0, 1005.0)
    got = histogram_frames(read_frames(path), *binning)
    (fused,) = simulate_histograms([config], *binning, workers=workers)
    pairing = pair_events(want, valid_window)
    ref = histogram(pairing.delta_ts, pairing.n_triggers, 10.0, 1005.0)
    assert got.n_triggers == fused.n_triggers == ref.n_triggers == config.n_triggers
    assert got.counts.tobytes() == fused.counts.tobytes() == ref.counts.tobytes()
    assert got.bin_centers.tobytes() == ref.bin_centers.tobytes()
    if fields.get("window_length") == 5e6:
        assert read_frames(path).__next__().clicks[0].max() >= 2**32


class TestHistogram:
    def test_direct_binning(self):
        h = histogram([2.0, -3.0, 14.0], n_triggers=10, bin_width=10.0, half_range=205.0)
        center = np.flatnonzero(h.bin_centers == 0.0)[0]
        assert h.counts[center] == 2
        assert h.counts[center + 1] == 1
        assert h.values[center] == pytest.approx(0.2)
        assert h.values[center + 1] == pytest.approx(0.1)
        assert h.counts.sum() == 3

    def test_boundary_goes_right(self):
        h = histogram([5.0], 1, 10.0, 205.0)
        assert h.counts[np.flatnonzero(h.bin_centers == 10.0)[0]] == 1
        assert h.counts[np.flatnonzero(h.bin_centers == 0.0)[0]] == 0

    def test_empty_input_all_zero(self):
        h = histogram([], 7, 10.0, 205.0)
        assert h.counts.sum() == 0
        assert np.all(h.values == 0.0)

    def test_out_of_range_dropped(self):
        # ±1e300 ns lie beyond int64 bins, 1e308 / 0.1 beyond the float range
        h = histogram([500.0, -500.0, 1e300, -1e300, 0.0], 1, 10.0, 205.0)
        assert h.counts.sum() == 1
        assert histogram([1e308, -1e308], 1, 0.1, 0.05).counts.sum() == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_difference_rejected(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            histogram([0.0, bad], 1)

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            histogram([1.0], 1, 10.0, 3.0)
        with pytest.raises(ValueError):
            histogram([1.0], 1, -1.0, 205.0)
        with pytest.raises(ValueError):
            histogram([1.0], 1, 10.0, 200.0)  # edge not on the centered grid
        with pytest.raises(ValueError):
            histogram([1.0], 0, 10.0, 205.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="counts must be non-negative"):
            CoincidenceHistogram(10.0, np.array([-10.0, 0.0, 10.0]), np.array([1, -1, 0]), 5)

    def test_bin_count_bounded(self, monkeypatch):
        # 2**24 + 1 bins, one past the bound, refused before any is allocated
        with pytest.raises(ValueError, match="give 16777217 bins, more than the 16777216"):
            histogram([], 1, 10.0, 5.0 + 2**23 * 10.0)
        # the bound itself is taken: 41 bins under a bound of 41
        monkeypatch.setattr(analysis, "_MAX_BINS", 41)
        assert histogram([], 1, 10.0, 205.0).counts.size == 41
        with pytest.raises(ValueError, match="give 43 bins, more than the 41"):
            histogram([], 1, 10.0, 215.0)

    def test_window_bins_alignment(self):
        h = histogram([0.0], 1, 10.0, 205.0)
        assert int(h.window_bins(25.0).sum()) == 5
        assert int(h.window_bins(75.0).sum()) == 15
        with pytest.raises(ValueError):
            h.window_bins(30.0)
        assert int(h.window_bins(5.0).sum()) == 1
        with pytest.raises(ValueError, match="selects no bin"):
            h.window_bins(-5.0)
        assert int(h.window_bins(205.0).sum()) == h.bin_centers.size
        with pytest.raises(ValueError, match="wider than the histogram's half range"):
            h.window_bins(215.0)


class TestEstimateAccidentals:
    def flat_hist(self, value, n_triggers=1000):
        centers = np.arange(-200.0, 201.0, 10.0)
        counts = np.full(centers.size, int(value * n_triggers))
        return CoincidenceHistogram(10.0, centers, counts, n_triggers)

    def test_flat_histogram_recovers_constant(self):
        h = self.flat_hist(0.05)
        est = estimate_accidentals(h)
        assert est.g_acc == pytest.approx(0.05, rel=1e-12)
        assert est.sigma > 0.0

    def test_pair_estimate_is_mean_of_single_estimates(self):
        rng = np.random.default_rng(3)
        centers = np.arange(-200.0, 201.0, 10.0)
        h_par = CoincidenceHistogram(10.0, centers, rng.integers(0, 90, centers.size), 7001)
        h_perp = CoincidenceHistogram(10.0, centers, rng.integers(0, 90, centers.size), 6007)
        wing = (80.0, 190.0)
        est_par = estimate_accidentals(h_par, wing=wing)
        est_perp = estimate_accidentals(h_perp, wing=wing)
        pair = estimate_accidentals(h_par, h_perp, wing=wing)
        assert pair.g_acc == 0.5 * (est_par.g_acc + est_perp.g_acc)
        assert pair.sigma == 0.5 * np.hypot(est_par.sigma, est_perp.sigma)

    def test_needs_a_histogram(self):
        with pytest.raises(ValueError, match="at least one histogram"):
            estimate_accidentals()

    def test_wing_must_fit_the_histogram(self):
        h = self.flat_hist(0.05)  # half range 205 ns
        assert estimate_accidentals(h, wing=(100.0, 205.0)).g_acc == pytest.approx(0.05)
        with pytest.raises(ValueError, match=r"wing \(100, 206\) is wider than the histogram's half range \(205\)"):
            estimate_accidentals(h, wing=(100.0, 206.0))

    @pytest.mark.parametrize("wing", [(-10.0, 200.0), (math.nan, 200.0)])
    def test_wing_below_zero_rejected(self, wing):
        # a wing from |dt| < 0 would take in the central peak
        with pytest.raises(ValueError, match=r"wing \(.*\) must start at a non-negative \|dt\|"):
            estimate_accidentals(self.flat_hist(0.05), wing=wing)

    def test_wing_between_bin_centres_rejected(self):
        # the centres lie on multiples of 10 ns, none within [101, 109]
        with pytest.raises(ValueError, match="wing region contains no histogram bins"):
            estimate_accidentals(self.flat_hist(0.05), wing=(101.0, 109.0))

    def test_zero_background_run_is_statistically_zero(self):
        cfg = ExperimentConfig(n_triggers=200_000, seed=14)  # paper-like 0.5%
        p = pair_events(simulate(cfg))
        h = histogram(p.delta_ts, p.n_triggers)
        est = estimate_accidentals(h)
        wing_bins = int((np.abs(h.bin_centers) >= 100.0).sum())
        assert est.g_acc * wing_bins * h.n_triggers <= 3.0  # at most a stray count

    def test_background_floor_matches_poisson_model(self):
        # independent oracle: exact first-click pair density of two Poisson
        # processes, gated by the 85 ns validity window. For dt > 0 wings,
        #   E_bin = r_b (e^{-r_a d1} - e^{-r_a d2}) (1 - e^{-(r_a+r_b) V}) / (r_a+r_b)
        # and mirrored with a <-> b for dt < 0.
        r_a, r_b, v_w, n = 3e-4, 2e-4, 85.0, 400_000
        cfg = ExperimentConfig(
            n_triggers=n, eta_f=0.0, eta_s=0.0, bg_rate_a=r_a, bg_rate_b=r_b, seed=23
        )
        p = pair_events(simulate(cfg), valid_window=v_w)
        h = histogram(p.delta_ts, p.n_triggers)
        est = estimate_accidentals(h, wing=(100.0, 200.0))

        def wing_prediction(d1, d2, r_first, r_second):
            gate = (1.0 - math.exp(-(r_a + r_b) * v_w)) / (r_a + r_b)
            return r_second * (math.exp(-r_first * d1) - math.exp(-r_first * d2)) * gate

        preds = []
        for c in h.bin_centers[np.abs(h.bin_centers) >= 100.0]:
            lo, hi = abs(c) - 5.0, abs(c) + 5.0
            if c > 0:
                preds.append(wing_prediction(lo, hi, r_a, r_b))
            else:
                preds.append(wing_prediction(lo, hi, r_b, r_a))
        predicted = float(np.mean(preds))
        assert est.g_acc == pytest.approx(predicted, abs=4.0 * est.sigma)


class TestVisibility:
    def make_pair_histograms(self, seed, n_triggers=300_000, eta=1.0, **kw):
        h = {}
        for xi, s in ((1.0, seed), (0.0, seed + 1)):
            cfg = ExperimentConfig(
                n_triggers=n_triggers, eta_f=eta, eta_s=eta, xi=xi, seed=s, **kw
            )
            p = pair_events(simulate(cfg))
            h[xi] = histogram(p.delta_ts, p.n_triggers, 10.0, 255.0)
        return h[1.0], h[0.0]

    def test_identical_histograms_give_zero(self):
        h = histogram([2.0, 12.0, -7.0], 5, 10.0, 205.0)
        res = visibility(h, h, 25.0)
        assert res.v == 0.0

    def test_empty_interfering_histogram_gives_one(self):
        h_perp = histogram([0.0, 3.0], 5, 10.0, 205.0)
        h_par = histogram([], 5, 10.0, 205.0)
        assert visibility(h_par, h_perp, 25.0).v == 1.0

    def test_zero_denominator_raises(self):
        h = histogram([], 5, 10.0, 205.0)
        with pytest.raises(InsufficientStatisticsError):
            visibility(h, h, 25.0)

    def test_mismatched_binning_rejected(self):
        h1 = histogram([0.0], 5, 10.0, 205.0)
        h2 = histogram([0.0], 5, 10.0, 105.0)
        with pytest.raises(ValueError):
            visibility(h1, h2, 25.0)
        # the same number and width of bins, on centres 1 ns apart
        shifted = CoincidenceHistogram(10.0, h1.bin_centers + 1.0, h1.counts, 5)
        with pytest.raises(ValueError, match="identical binning"):
            visibility(h1, shifted, 25.0)

    def test_scalar_floor_subtraction(self):
        h_par = histogram([0.0] * 4, 10, 10.0, 205.0)
        h_perp = histogram([0.0] * 12, 10, 10.0, 205.0)
        res = visibility(h_par, h_perp, 25.0, AccidentalEstimate(0.02, 0.0))
        # windows: (0.4 - 5*0.02) / (1.2 - 5*0.02) = 0.3/1.1
        assert res.v == pytest.approx(1.0 - 0.3 / 1.1, rel=1e-12)
        assert res.g_acc == 0.02

    def test_per_bin_floor_subtraction(self):
        h_par = histogram([0.0] * 4, 10, 10.0, 205.0)
        h_perp = histogram([0.0] * 12, 10, 10.0, 205.0)
        g = np.zeros(h_par.bin_centers.size)
        g[np.abs(h_par.bin_centers) <= 25.0] = 0.02  # only window bins matter
        res = visibility(h_par, h_perp, 25.0, AccidentalEstimate(g, 0.0))
        assert res.v == pytest.approx(1.0 - 0.3 / 1.1, rel=1e-12)
        assert res.g_acc == pytest.approx(0.02)
        with pytest.raises(ValueError, match="must match the histogram binning"):
            visibility(h_par, h_perp, 25.0, AccidentalEstimate(np.zeros(3), 0.0))
        with pytest.raises(ValueError, match="selects no bin"):  # an empty window
            visibility(h_par, h_perp, -5.0, AccidentalEstimate(g, 0.0))

    def test_floor_sigma_enters_for_either_level(self):
        # a floor's standard error enters both window sums as n_win * sigma,
        # whether its level is one value or per bin
        h_par = histogram([0.0] * 4, 10, 10.0, 205.0)
        h_perp = histogram([0.0] * 12, 10, 10.0, 205.0)
        per_bin = np.full(h_par.bin_centers.size, 0.02)
        ratio = 0.3 / 1.1  # as above
        floor_var = (5 * 0.01) ** 2  # 5 window bins
        sigma_v = math.sqrt(4 / 10**2 + floor_var + ratio**2 * (12 / 10**2 + floor_var)) / 1.1
        for level in (0.02, per_bin):
            res = visibility(h_par, h_perp, 25.0, AccidentalEstimate(level, 0.01))
            assert res.v == pytest.approx(1.0 - ratio, rel=1e-12)
            assert res.sigma_v == pytest.approx(sigma_v, rel=1e-12)

    @pytest.mark.parametrize("bare", [0.02, np.full(41, 0.02)], ids=["float", "per_bin"])
    def test_bare_floor_rejected(self, bare):
        # a floor without its standard error is not taken as exact
        h = histogram([0.0] * 12, 10, 10.0, 205.0)
        with pytest.raises(AttributeError):
            visibility(h, h, 25.0, bare)

    def test_end_to_end_matches_closed_form(self):
        h_par, h_perp = self.make_pair_histograms(seed=51)
        res = visibility(h_par, h_perp, 245.0)
        assert abs(res.v - visibility_closed_form(TAU_S, TAU_F)) < 3.0 * res.sigma_v

    def test_correction_consistency_with_matched_seeds(self):
        # corrected visibility of a run with background equals the
        # uncorrected visibility of the same run without background
        kw = dict(n_triggers=250_000, eta=0.3)
        clean_par, clean_perp = self.make_pair_histograms(seed=61, **kw)
        noisy_par, noisy_perp = self.make_pair_histograms(
            seed=61, bg_rate_a=1e-4, bg_rate_b=1e-4, **kw
        )
        v_clean = visibility(clean_par, clean_perp, 75.0)
        g = estimate_accidentals(noisy_par, noisy_perp)
        v_corr = visibility(noisy_par, noisy_perp, 75.0, g)
        assert v_corr.g_acc > 3.0 * g.sigma  # the floor is really there
        combined = math.hypot(v_clean.sigma_v, v_corr.sigma_v)
        assert abs(v_corr.v - v_clean.v) < 3.0 * combined


class TestDipCurve:
    def histograms_for_delay(self, delta_t, n_triggers=60_000, half_range=255.0):
        out = []
        for xi, s in ((1.0, 71), (0.0, 72)):
            cfg = ExperimentConfig(
                n_triggers=n_triggers, eta_f=1.0, eta_s=1.0, xi=xi,
                delta_t=delta_t, seed=s,
            )
            p = pair_events(simulate(cfg))
            out.append(histogram(p.delta_ts, p.n_triggers, 10.0, half_range))
        return tuple(out)

    def test_zero_delay_point(self):
        h_par, h_perp = self.histograms_for_delay(0.0)
        (point,) = dip_curve([(0.0, h_par, h_perp)], t_c=245.0)
        expected = 1.0 - visibility_closed_form(TAU_S, TAU_F)
        assert abs(point.ratio - expected) < 3.0 * point.sigma

    def test_positive_delay_point(self):
        h_par, h_perp = self.histograms_for_delay(10.0)
        (point,) = dip_curve([(10.0, h_par, h_perp)], t_c=245.0)
        assert abs(point.ratio - dip_ratio(10.0, TAU_S, TAU_F)) < 3.0 * point.sigma

    def test_subtracted_point_uses_pair_wing_estimate(self):
        h_par, h_perp = self.histograms_for_delay(5.0)
        wing = (150.0, 250.0)
        (point,) = dip_curve([(5.0, h_par, h_perp)], t_c=75.0, wing=wing)
        g = estimate_accidentals(h_par, h_perp, wing=wing)
        res = visibility(h_par, h_perp, 75.0, g)
        assert point == (5.0, 1.0 - res.v, res.sigma_v)
        raw = visibility(h_par, h_perp, 75.0)
        assert g.sigma > 0.0 and point.ratio < 1.0 - raw.v  # a floor came off
        for no_wing in ({}, {"wing": None}):
            assert dip_curve([(5.0, h_par, h_perp)], t_c=75.0, **no_wing) == [
                (5.0, 1.0 - raw.v, raw.sigma_v)
            ]

    def test_far_delay_recovers_full_coincidences(self):
        out = []
        for xi, s in ((1.0, 81), (0.0, 82)):
            cfg = ExperimentConfig(
                n_triggers=30_000, eta_f=1.0, eta_s=1.0, xi=xi,
                delta_t=-1000.0, seed=s,
                trigger_period=4000.0, window_length=2000.0,
            )
            p = pair_events(simulate(cfg))
            out.append(histogram(p.delta_ts, p.n_triggers, 10.0, 1505.0))
        (point,) = dip_curve([(-1000.0, out[0], out[1])], t_c=1495.0)
        assert abs(point.ratio - 1.0) < 3.0 * point.sigma


class TestModelFitToSimulatedHistogram:
    def test_fitted_curve_covers_simulated_histogram(self):
        # offset + scale * model fitted to a simulated non-interfering
        # histogram with background: the fitted curve should sit within
        # 3 sigma of at least 90 percent of the per-bin values
        from homsim import Envelope, SourcePair
        from quadrature import window

        cfg = ExperimentConfig(
            n_triggers=300_000, eta_f=1.0, eta_s=1.0, xi=0.0,
            bg_rate_a=2e-4, bg_rate_b=2e-4, seed=91,
        )
        p = pair_events(simulate(cfg))
        h = histogram(p.delta_ts, p.n_triggers)
        pair = SourcePair(Envelope(TAU_F), Envelope(TAU_S), 0.0)
        model = np.array([window(pair, c - 5.0, c + 5.0) for c in h.bin_centers])
        design = np.column_stack([model, np.ones_like(model)])
        (scale, offset), *_ = np.linalg.lstsq(design, h.values, rcond=None)
        assert scale == pytest.approx(1.0, abs=0.05)
        fitted = offset + scale * model
        sigma = np.sqrt(h.counts + 1.0) / h.n_triggers
        covered = np.abs(h.values - fitted) <= 3.0 * sigma
        assert covered.mean() >= 0.9
