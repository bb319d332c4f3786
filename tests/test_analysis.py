import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homsim import (
    DataFormatError,
    EventStream,
    ExperimentConfig,
    InsufficientStatisticsError,
    dip_curve,
    dip_ratio,
    estimate_accidentals,
    fit_scale,
    histogram,
    pair_events,
    simulate,
    visibility,
    visibility_closed_form,
)
from homsim.analysis import CoincidenceHistogram, pair_clicks, write_histogram_csv
from homsim.io import DET_A, DET_B, DET_T

TAU_S, TAU_F = 26.18, 13.61


def ns(t):
    # 125 ps ticks
    return int(round(t * 8))


class TestPairEvents:
    def test_basic_pair(self):
        s = EventStream.from_records([("T", 0), ("A", ns(50)), ("B", ns(60))])
        p = pair_events(s)
        assert p.n_triggers == 1
        assert p.valid.tolist() == [True]
        assert p.delta_ts.tolist() == [-10.0]

    def test_sole_click_outside_window_invalid(self):
        s = EventStream.from_records([("T", 0), ("A", ns(90))])
        p = pair_events(s)
        assert p.valid.tolist() == [False]
        assert p.delta_ts.size == 0
        assert p.n_triggers == 1

    def test_click_on_window_edge_is_valid(self):
        s = EventStream.from_records([("T", 0), ("A", ns(85))])
        assert pair_events(s).valid.tolist() == [True]

    def test_empty_sequence_counts_in_normalization(self):
        s = EventStream.from_records([("T", 0), ("T", 8000), ("A", 8000 + ns(10))])
        p = pair_events(s)
        assert p.n_triggers == 2
        assert p.valid.tolist() == [False, True]

    def test_pairing_uses_clicks_beyond_validity_window(self):
        # validity comes from the early A click; the late B click still
        # pairs even though it misses the 85 ns gate
        s = EventStream.from_records([("T", 0), ("A", ns(50)), ("B", ns(120))])
        p = pair_events(s)
        assert p.valid.tolist() == [True]
        assert p.delta_ts.tolist() == [-70.0]

    def test_first_click_semantics(self):
        s = EventStream.from_records(
            [("T", 0), ("B", ns(5)), ("A", ns(30)), ("B", ns(40)), ("A", ns(70))]
        )
        p = pair_events(s)
        assert p.first_a.tolist() == [ns(30)]
        assert p.first_b.tolist() == [ns(5)]
        assert p.delta_ts.tolist() == [25.0]

    def test_clicks_attach_to_most_recent_trigger(self):
        s = EventStream.from_records(
            [("A", 100), ("T", 800), ("A", 800 + ns(20)), ("T", 8800), ("B", 8800 + ns(30))]
        )
        p = pair_events(s)
        # the click before the first trigger is dropped entirely: it is
        # neither trigger 0's first A click nor wrapped onto the last trigger
        assert p.first_a.tolist() == [800 + ns(20), -1]
        assert p.first_b.tolist() == [-1, 8800 + ns(30)]
        assert p.valid.tolist() == [True, True]
        assert p.delta_ts.size == 0

    @pytest.mark.parametrize("valid_window", [1e306, 2**63 / 1000.0])
    def test_window_beyond_int64_ticks_keeps_every_click(self, valid_window):
        # at 1 ps ticks each window spans at least 2**63 ticks
        trigger_ticks = np.array([0, 2**62], dtype=np.int64)
        a = (np.array([2**62 - 1, 2**63 - 2]), np.array([0, 1]))
        b = (np.array([5]), np.array([1]))
        p = pair_clicks(trigger_ticks, a, b, valid_window, resolution=1.0)
        assert p.valid.tolist() == [True, True]
        assert p.first_a.tolist() == [2**62 - 1, 2**63 - 2]

    def test_unsorted_stream_rejected(self):
        s = EventStream.from_records([("T", 100), ("A", 50)])
        with pytest.raises(DataFormatError):
            pair_events(s)

    def test_per_trigger_first_clicks_and_validity(self):
        s = EventStream.from_records(
            [("T", 0), ("A", ns(50)), ("B", ns(60)), ("T", 8000)]
        )
        p = pair_events(s)
        assert p.trigger_ticks.tolist() == [0, 8000]
        assert p.first_a.tolist() == [ns(50), -1]
        assert p.first_b.tolist() == [ns(60), -1]
        assert p.valid.tolist() == [True, False]

    def test_exactness_on_composite_stream(self):
        # several triggers exercising every branch at once
        s = EventStream.from_records(
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


def reference_first_per_trigger(ticks, owner, n):
    first = np.full(n, -1, dtype=np.int64)
    uniq, pos = np.unique(owner, return_index=True)
    first[uniq] = ticks[pos]  # stream sorted, so first occurrence is earliest
    return first


def reference_pair_events(stream, valid_window):
    """pair_events as it was when the first click of a trigger was its
    first occurrence in the sorted stream (found with np.unique), kept as
    the reference for the order-free pairing kernel. Returns
    (trigger_ticks, valid, first_a, first_b)."""
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
        trigger_ticks,
        valid,
        reference_first_per_trigger(a_ticks, a_owner, n),
        reference_first_per_trigger(b_ticks, b_owner, n),
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
def test_pair_events_matches_reference(stream, valid_window):
    trigger_ticks, valid, first_a, first_b = reference_pair_events(stream, valid_window)
    p = pair_events(stream, valid_window)
    assert p.trigger_ticks.tobytes() == trigger_ticks.tobytes()
    assert p.valid.tobytes() == valid.tobytes()
    assert p.first_a.tobytes() == first_a.tobytes()
    assert p.first_b.tobytes() == first_b.tobytes()
    assert p.resolution == stream.resolution


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
        h = histogram([500.0, -500.0, 0.0], 1, 10.0, 205.0)
        assert h.counts.sum() == 1

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValueError):
            histogram([1.0], 1, 10.0, 3.0)
        with pytest.raises(ValueError):
            histogram([1.0], 1, -1.0, 205.0)
        with pytest.raises(ValueError):
            histogram([1.0], 1, 10.0, 200.0)  # edge not on the centered grid
        with pytest.raises(ValueError):
            histogram([1.0], 0, 10.0, 205.0)

    def test_window_bins_alignment(self):
        h = histogram([0.0], 1, 10.0, 205.0)
        assert int(h.window_bins(25.0).sum()) == 5
        assert int(h.window_bins(75.0).sum()) == 15
        with pytest.raises(ValueError):
            h.window_bins(30.0)

    def test_csv_writer(self, tmp_path):
        h = histogram([2.0, 14.0], 4, 10.0, 25.0)
        path = write_histogram_csv(h, tmp_path / "h.csv", config_hash="beef")
        text = path.read_text().splitlines()
        assert text[0] == "# config_hash=beef"
        assert text[2] == "bin_center_ns,counts,value"
        assert any(line.startswith("0,1,0.25") for line in text)


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

    def test_scalar_floor_subtraction(self):
        h_par = histogram([0.0] * 4, 10, 10.0, 205.0)
        h_perp = histogram([0.0] * 12, 10, 10.0, 205.0)
        res = visibility(h_par, h_perp, 25.0, g_acc=0.02)
        # windows: (0.4 - 5*0.02) / (1.2 - 5*0.02) = 0.3/1.1
        assert res.v == pytest.approx(1.0 - 0.3 / 1.1, rel=1e-12)
        assert res.g_acc == 0.02

    def test_per_bin_floor_subtraction(self):
        h_par = histogram([0.0] * 4, 10, 10.0, 205.0)
        h_perp = histogram([0.0] * 12, 10, 10.0, 205.0)
        g = np.zeros(h_par.bin_centers.size)
        g[np.abs(h_par.bin_centers) <= 25.0] = 0.02  # only window bins matter
        res = visibility(h_par, h_perp, 25.0, g_acc=g)
        assert res.v == pytest.approx(1.0 - 0.3 / 1.1, rel=1e-12)
        assert res.g_acc == pytest.approx(0.02)
        with pytest.raises(ValueError):
            visibility(h_par, h_perp, 25.0, g_acc=np.zeros(3))

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
        (point,) = dip_curve([(0.0, h_par, h_perp)], t_c=490.0)
        expected = 1.0 - visibility_closed_form(TAU_S, TAU_F)
        assert abs(point.ratio - expected) < 3.0 * point.sigma

    def test_positive_delay_point(self):
        h_par, h_perp = self.histograms_for_delay(10.0)
        (point,) = dip_curve([(10.0, h_par, h_perp)], t_c=490.0)
        assert abs(point.ratio - dip_ratio(10.0, TAU_S, TAU_F)) < 3.0 * point.sigma

    def test_subtracted_point_uses_pair_wing_estimate(self):
        h_par, h_perp = self.histograms_for_delay(5.0)
        wing = (150.0, 250.0)
        (point,) = dip_curve(
            [(5.0, h_par, h_perp)], t_c=150.0, subtract_accidentals=True, wing=wing
        )
        g = estimate_accidentals(h_par, h_perp, wing=wing)
        res = visibility(h_par, h_perp, 75.0, g)
        assert point == (5.0, 1.0 - res.v, res.sigma_v)
        (raw,) = dip_curve([(5.0, h_par, h_perp)], t_c=150.0)
        assert raw.ratio == 1.0 - visibility(h_par, h_perp, 75.0).v

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
        (point,) = dip_curve([(-1000.0, out[0], out[1])], t_c=2990.0)
        assert abs(point.ratio - 1.0) < 3.0 * point.sigma


class TestFitScale:
    def test_exact_model_recovered(self):
        model = np.array([0.1, 0.4, 0.9, 1.3])
        fit = fit_scale(model, model)
        assert fit.scale == pytest.approx(1.0, abs=1e-12)
        assert fit.offset == pytest.approx(0.0, abs=1e-12)

    def test_affine_recovered_exactly(self):
        model = np.array([0.1, 0.4, 0.9, 1.3])
        fit = fit_scale(model, 2.0 * model + 0.1)
        assert fit.scale == pytest.approx(2.0, abs=1e-12)
        assert fit.offset == pytest.approx(0.1, abs=1e-12)

    def test_scale_only(self):
        model = np.array([1.0, 2.0, 3.0])
        fit = fit_scale(model, 0.5 * model, with_offset=False)
        assert fit.scale == pytest.approx(0.5, abs=1e-12)
        assert fit.offset == 0.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            fit_scale([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            fit_scale([0.0, 0.0], [1.0, 2.0], with_offset=False)
        with pytest.raises(ValueError):
            fit_scale([1.0], [1.0])

    def test_recovers_simulated_dip_scale(self):
        # scaled + offset dip data round-trips through the fitter
        delays = np.array([-40.0, -20.0, -10.0, 0.0, 10.0, 20.0, 40.0])
        model = dip_ratio(delays, TAU_S, TAU_F)
        rng = np.random.default_rng(3)
        data = 1.7 * model + 0.02 + rng.normal(0.0, 1e-4, delays.size)
        fit = fit_scale(model, data)
        assert fit.scale == pytest.approx(1.7, abs=5e-3)
        assert fit.offset == pytest.approx(0.02, abs=5e-3)

    def test_fitted_curve_covers_simulated_histogram(self):
        # offset + scale * model fitted to a simulated non-interfering
        # histogram with background: the fitted curve should sit within
        # 3 sigma of at least 90 percent of the per-bin values
        from scipy.integrate import quad

        from homsim import Envelope, SourcePair, coincidence_density

        cfg = ExperimentConfig(
            n_triggers=300_000, eta_f=1.0, eta_s=1.0, xi=0.0,
            bg_rate_a=2e-4, bg_rate_b=2e-4, seed=91,
        )
        p = pair_events(simulate(cfg))
        h = histogram(p.delta_ts, p.n_triggers)
        pair = SourcePair(Envelope(TAU_F), Envelope(TAU_S), 0.0)
        model = np.array(
            [
                quad(lambda dt: coincidence_density(pair, dt), c - 5.0, c + 5.0)[0]
                for c in h.bin_centers
            ]
        )
        fit = fit_scale(model, h.values)
        assert fit.scale == pytest.approx(1.0, abs=0.05)
        fitted = fit.offset + fit.scale * model
        sigma = np.sqrt(h.counts + 1.0) / h.n_triggers
        covered = np.abs(h.values - fitted) <= 3.0 * sigma
        assert covered.mean() >= 0.9
