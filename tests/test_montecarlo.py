import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from homsim import (
    ConfigError,
    ExperimentConfig,
    SourcePair,
    coincidence_density,
    coincidence_fraction,
    coincidence_probability,
    expected_accidental_floor,
    histogram,
    pair_events,
    quantize,
    simulate,
    simulate_histograms,
)
from homsim.interference import _p_coincidence
from homsim.io import DET_A, DET_B, DET_T
from homsim.montecarlo import _CHUNK
from homsim.wavepacket import Envelope, amplitude

TAU_S, TAU_F = 26.18, 13.61


def ideal_config(**kw):
    base = dict(n_triggers=100_000, eta_f=1.0, eta_s=1.0, xi=1.0, seed=42)
    base.update(kw)
    return ExperimentConfig(**base)


class TestQuantize:
    def test_floor_convention(self):
        assert quantize(0.0, 125.0) == 0
        assert quantize(0.130, 125.0) == 1
        assert quantize(0.124, 125.0) == 0

    def test_vectorized(self):
        out = quantize(np.array([0.0, 1.0, 2.5]), 500.0)
        assert list(out) == [0, 2, 5]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            quantize(-0.1, 125.0)


class TestConfigValidation:
    def test_probability_bounds(self):
        with pytest.raises(ConfigError):
            ideal_config(eta_f=1.5)
        with pytest.raises(ConfigError):
            ideal_config(xi=-0.2)

    def test_rates_and_windows(self):
        with pytest.raises(ConfigError):
            ideal_config(bg_rate_a=-1e-3)
        with pytest.raises(ConfigError):
            ideal_config(trigger_period=400.0, window_length=500.0)
        with pytest.raises(ConfigError):
            ideal_config(n_triggers=0)
        with pytest.raises(ConfigError):
            ideal_config(tau_f=0.0)
        with pytest.raises(ConfigError):
            ideal_config(tau_s=float("nan"))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", [
        "trigger_period", "eta_f", "eta_s", "tau_f", "tau_s", "delta_t",
        "excitation_jitter_sigma", "detuning", "xi", "bg_rate_a", "bg_rate_b",
        "window_length", "timestamp_resolution", "detector_offset_a", "detector_offset_b",
    ])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            ideal_config(**{name: value})

    def test_period_exceeds_window_by_at_least_one_tick(self):
        # 125 ps ticks are 0.125 ns: 500.125 leaves exactly one tick
        # between consecutive acquisition windows
        ideal_config(trigger_period=500.125, window_length=500.0)
        for period in (np.nextafter(500.125, 0.0), 500.05):
            with pytest.raises(ConfigError, match="one timestamp tick"):
                ideal_config(trigger_period=period, window_length=500.0)


class TestDeterminism:
    def test_identical_runs(self):
        cfg = ideal_config(n_triggers=30_000, bg_rate_a=1e-4, bg_rate_b=1e-4)
        s1, s2 = simulate(cfg), simulate(cfg)
        assert np.array_equal(s1.detectors, s2.detectors)
        assert np.array_equal(s1.timestamps, s2.timestamps)

    def test_independent_of_worker_count(self):
        # spans several chunks so parallel scheduling actually varies
        cfg = ideal_config(n_triggers=150_000, bg_rate_a=5e-5)
        ref = simulate(cfg, workers=1)
        for workers in (2, 4):
            alt = simulate(cfg, workers=workers)
            assert np.array_equal(ref.detectors, alt.detectors)
            assert np.array_equal(ref.timestamps, alt.timestamps)

    def test_stream_sorted_with_triggers_first(self):
        cfg = ideal_config(n_triggers=20_000)
        s = simulate(cfg)
        assert s.is_sorted()
        # a trigger quantized onto the same tick as a click sorts first
        same = np.flatnonzero(np.diff(s.timestamps) == 0)
        assert np.all(s.detectors[same] <= s.detectors[same + 1])


def reference_amplitude(tau, detuning, t, t0):
    """Envelope amplitude with per-sample start times t0."""
    return amplitude(Envelope(tau, detuning=detuning), t - t0)


def reference_outcome_probs(amp_direct, amp_swapped, xi):
    """The beam-splitter outcome law from the complex pair amplitudes
    a = psi_f(t1) psi_s(t2) and b = psi_f(t2) psi_s(t1): (p_coincidence,
    p_both_at_a, p_both_at_b)."""
    a, b = amp_direct, amp_swapped
    d = np.abs(a) ** 2 + np.abs(b) ** 2
    x = 2.0 * xi * xi * (a * np.conj(b)).real
    p_same = (d + x) / (4.0 * d)
    return (d - x) / (2.0 * d), p_same, p_same


def reference_simulate_chunk(config, first, count, chunk_idx):
    """The chunk generator that routed photons through per-detector lists
    and drew the outcomes from the complex-amplitude law, kept (comments
    dropped) as the reference for the one-label-per-photon, real-valued
    version."""
    rng = np.random.default_rng([config.seed, chunk_idx])
    trig = (first + np.arange(count, dtype=float)) * config.trigger_period

    live_f = rng.random(count) < config.eta_f
    live_s = rng.random(count) < config.eta_s
    if config.excitation_jitter_sigma > 0.0:
        jitter = rng.standard_normal(count) * config.excitation_jitter_sigma
    else:
        jitter = 0.0
    u_f = rng.random(count)
    u_s = rng.random(count)
    r_outcome = rng.random(count)
    r_route = rng.random(count)

    t0_f = trig + max(config.delta_t, 0.0)
    t0_s = trig + max(-config.delta_t, 0.0) + jitter
    t_f = t0_f - config.tau_f * np.log1p(-u_f)
    t_s = t0_s - config.tau_s * np.log1p(-u_s)

    both = live_f & live_s
    only_f = live_f & ~live_s
    only_s = live_s & ~live_f

    times_a = [np.empty(0)]
    times_b = [np.empty(0)]
    trig_a = [np.empty(0)]
    trig_b = [np.empty(0)]

    def route(times, trigs, to_a_mask):
        times_a.append(times[to_a_mask])
        trig_a.append(trigs[to_a_mask])
        times_b.append(times[~to_a_mask])
        trig_b.append(trigs[~to_a_mask])

    if np.any(both):
        amp_f1 = reference_amplitude(config.tau_f, 0.0, t_f[both], t0_f[both])
        amp_s2 = reference_amplitude(
            config.tau_s, config.detuning, t_s[both], t0_s[both]
        )
        amp_f2 = reference_amplitude(config.tau_f, 0.0, t_s[both], t0_f[both])
        amp_s1 = reference_amplitude(
            config.tau_s, config.detuning, t_f[both], t0_s[both]
        )
        p_c, p_a, _ = reference_outcome_probs(
            amp_f1 * amp_s2, amp_f2 * amp_s1, config.xi
        )
        r_o = r_outcome[both]
        coinc = r_o < p_c
        bunch_a = ~coinc & (r_o < p_c + p_a)
        bunch_b = ~coinc & ~bunch_a

        tf_b, ts_b, tr_b = t_f[both], t_s[both], trig[both]
        swap = r_route[both] < 0.5
        ca = np.where(swap[coinc], tf_b[coinc], ts_b[coinc])
        cb = np.where(swap[coinc], ts_b[coinc], tf_b[coinc])
        times_a.append(ca)
        trig_a.append(tr_b[coinc])
        times_b.append(cb)
        trig_b.append(tr_b[coinc])
        for mask, tl, gl in ((bunch_a, times_a, trig_a), (bunch_b, times_b, trig_b)):
            tl.append(tf_b[mask])
            tl.append(ts_b[mask])
            gl.append(tr_b[mask])
            gl.append(tr_b[mask])

    if np.any(only_f):
        route(t_f[only_f], trig[only_f], r_route[only_f] < 0.5)
    if np.any(only_s):
        route(t_s[only_s], trig[only_s], r_route[only_s] < 0.5)

    w = config.window_length
    for rate, tl, gl in (
        (config.bg_rate_a, times_a, trig_a),
        (config.bg_rate_b, times_b, trig_b),
    ):
        if rate > 0.0:
            n_bg = rng.poisson(rate * w, count)
            owners = np.repeat(trig, n_bg)
            tl.append(owners + rng.random(owners.size) * w)
            gl.append(owners)

    det_parts = [np.full(len(trig), DET_T, dtype=np.uint8)]
    time_parts = [trig]
    for code, tl, gl, offset in (
        (DET_A, times_a, trig_a, config.detector_offset_a),
        (DET_B, times_b, trig_b, config.detector_offset_b),
    ):
        times = np.concatenate(tl) + offset
        owners = np.concatenate(gl)
        keep = (times >= owners) & (times < owners + w) & (times >= 0.0)
        det_parts.append(np.full(int(keep.sum()), code, dtype=np.uint8))
        time_parts.append(times[keep])

    det = np.concatenate(det_parts)
    times = np.concatenate(time_parts)
    ticks = quantize(times, config.timestamp_resolution)
    return det, ticks


def reference_simulate(config):
    n = config.n_triggers
    parts = [
        reference_simulate_chunk(config, start, min(_CHUNK, n - start), idx)
        for idx, start in enumerate(range(0, n, _CHUNK))
    ]
    det = np.concatenate([p[0] for p in parts])
    ticks = np.concatenate([p[1] for p in parts])
    order = np.lexsort((det, ticks))
    return det[order], ticks[order]


def maybe(strategy, off=0.0):
    return st.one_of(st.just(off), strategy)


def smallest_period(window_length, resolution):
    """The shortest trigger period a config accepts for this window."""
    tick = resolution / 1000.0
    period = window_length + tick
    while period - window_length < tick:
        period = float(np.nextafter(period, np.inf))
    return period


@settings(max_examples=200, deadline=None)
@given(
    taus=st.tuples(st.floats(0.5, 80.0), st.floats(0.5, 80.0)),
    gap=st.one_of(st.floats(-60.0, 60.0), st.floats(-1e4, 1e4)),
    sigma=maybe(st.floats(0.1, 5.0)),
    detunings=st.tuples(maybe(st.floats(-40.0, 40.0)), maybe(st.floats(-40.0, 40.0))),
    xi=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
# |kappa dt| / 2 up to ~3000 where both amplitudes are supported, far past
# where cosh overflows
@example(taus=(80.0, 0.5), gap=-10.0, sigma=3.0, detunings=(0.0, 2.5), xi=1.0, seed=1)
def test_outcome_law_matches_complex_amplitudes(taus, gap, sigma, detunings, xi, seed):
    # Per-sample starts as in the generator: the single-atom envelope
    # starts `gap` ns after the heralded one, moved by Gaussian jitter.
    # Times lie within 40 coherence times of their own envelope's start,
    # so the direct amplitude never underflows in the reference.
    tau_f, tau_s = taus
    pair = SourcePair(
        Envelope(tau_f, detuning=detunings[0]), Envelope(tau_s, detuning=detunings[1]), xi
    )
    rng = np.random.default_rng(seed)
    n = 256
    t0_f = np.zeros(n)
    t0_s = gap + sigma * rng.standard_normal(n)
    t1 = t0_f + tau_f * rng.uniform(0.0, 40.0, n)
    t2 = t0_s + tau_s * rng.uniform(0.0, 40.0, n)
    p_c = _p_coincidence(pair, t1, t2, t0_f, t0_s)
    want_c, want_same, _ = reference_outcome_probs(
        reference_amplitude(tau_f, detunings[0], t1, t0_f)
        * reference_amplitude(tau_s, detunings[1], t2, t0_s),
        reference_amplitude(tau_f, detunings[0], t2, t0_f)
        * reference_amplitude(tau_s, detunings[1], t1, t0_s),
        xi,
    )
    np.testing.assert_allclose(p_c, want_c, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(0.5 * (1.0 - p_c), want_same, rtol=0.0, atol=1e-12)


@st.composite
def generator_configs(draw):
    eta = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    resolution = draw(st.sampled_from([125.0, 1.0]))
    return ExperimentConfig(
        n_triggers=draw(st.sampled_from([1, 37, 3000, _CHUNK + 1234])),
        eta_f=draw(eta),
        eta_s=draw(eta),
        xi=draw(st.floats(0.0, 1.0)),
        delta_t=draw(maybe(st.floats(-60.0, 60.0))),
        excitation_jitter_sigma=draw(maybe(st.floats(0.1, 5.0))),
        detuning=draw(maybe(st.floats(-5.0, 5.0))),
        bg_rate_a=draw(maybe(st.floats(1e-5, 2e-3))),
        bg_rate_b=draw(maybe(st.floats(1e-5, 2e-3))),
        detector_offset_a=draw(maybe(st.floats(0.0, 60.0))),
        detector_offset_b=draw(maybe(st.floats(0.0, 60.0))),
        trigger_period=draw(st.sampled_from([1000.0, smallest_period(500.0, resolution)])),
        timestamp_resolution=resolution,
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=40, deadline=None)
@given(config=generator_configs(), workers=st.sampled_from([1, 2]))
@example(
    config=ExperimentConfig(
        n_triggers=_CHUNK + 1234, eta_f=0.7, eta_s=1.0, xi=0.8, delta_t=-7.0,
        excitation_jitter_sigma=1.5, detuning=2.0, bg_rate_a=1e-3, bg_rate_b=5e-4,
        detector_offset_a=3.3, detector_offset_b=12.0, seed=5,
    ),
    workers=2,
)
def test_stream_matches_reference_generator(config, workers):
    det, ticks = reference_simulate(config)
    stream = simulate(config, workers=workers)
    assert stream.detectors.tobytes() == det.tobytes()
    assert stream.timestamps.tobytes() == ticks.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    config=generator_configs(),
    workers=st.sampled_from([1, 2]),
    binning=st.sampled_from([(85.0, 10.0, 255.0), (500.0, 2.0, 501.0)]),
)
@example(
    # back-to-back windows with dense background: every click near a
    # window's end ticks just before the next trigger
    config=ExperimentConfig(
        n_triggers=_CHUNK + 1234, trigger_period=500.125, eta_f=1.0, eta_s=1.0,
        bg_rate_a=2e-3, bg_rate_b=2e-3, seed=3,
    ),
    workers=2,
    binning=(500.0, 2.0, 501.0),
)
def test_fused_histograms_match_stream_pipeline(config, workers, binning):
    valid_window, bin_width, half_range = binning
    # a second run in the same call: the counts of the two must not mix
    configs = [config, replace(config, seed=config.seed ^ 1, xi=1.0 - config.xi)]
    fused = simulate_histograms(configs, valid_window, bin_width, half_range, workers=workers)
    for cfg, h in zip(configs, fused):
        pairing = pair_events(simulate(cfg), valid_window)
        ref = histogram(pairing.delta_ts, pairing.n_triggers, bin_width, half_range)
        assert h.n_triggers == ref.n_triggers == cfg.n_triggers
        assert h.bin_width == ref.bin_width
        assert h.bin_centers.tobytes() == ref.bin_centers.tobytes()
        assert h.counts.tobytes() == ref.counts.tobytes()


class TestEventContent:
    def test_dark_run_contains_only_triggers(self):
        cfg = ExperimentConfig(n_triggers=1000, eta_f=0.0, eta_s=0.0, seed=1)
        s = simulate(cfg)
        assert len(s) == 1000
        assert np.all(s.detectors == DET_T)
        assert np.array_equal(s.timestamps, np.arange(1000) * 8000)

    def test_background_counts_poisson_mean(self):
        rate, w, n = 2e-4, 500.0, 50_000
        cfg = ExperimentConfig(
            n_triggers=n, eta_f=0.0, eta_s=0.0, bg_rate_a=rate, bg_rate_b=rate, seed=9
        )
        s = simulate(cfg)
        mean = rate * w * n
        for det in (DET_A, DET_B):
            count = int(np.sum(s.detectors == det))
            assert abs(count - mean) < 3.0 * np.sqrt(mean)

    def test_detector_offset_shifts_one_side(self):
        base = ideal_config(n_triggers=5000)
        shifted = ideal_config(n_triggers=5000, detector_offset_a=50.0)
        s0, s1 = simulate(base), simulate(shifted)
        a0 = np.sort(s0.timestamps[s0.detectors == DET_A])
        a1 = np.sort(s1.timestamps[s1.detectors == DET_A])
        b0 = np.sort(s0.timestamps[s0.detectors == DET_B])
        b1 = np.sort(s1.timestamps[s1.detectors == DET_B])
        assert np.array_equal(b0, b1)
        # 50 ns = 400 ticks at 125 ps; clicks pushed past the window gate
        # disappear, so compare the common prefix
        m = min(a0.size, a1.size)
        assert np.array_equal(a0[:m] + 400, a1[:m])


class TestPhysics:
    def test_coincidence_fraction_distinguishable(self):
        s = simulate(ideal_config(xi=0.0))
        p = coincidence_fraction(s)
        assert abs(p - 0.5) < 3.0 * np.sqrt(0.25 / 100_000)

    def test_coincidence_fraction_interfering(self):
        s = simulate(ideal_config(xi=1.0))
        expected = (TAU_S - TAU_F) ** 2 / (2.0 * (TAU_S + TAU_F) ** 2)
        sigma = np.sqrt(expected * (1 - expected) / 100_000)
        assert abs(coincidence_fraction(s) - expected) < 3.0 * sigma

    def test_identical_sources_never_coincide(self):
        cfg = ideal_config(tau_f=20.0, tau_s=20.0, n_triggers=30_000)
        assert coincidence_fraction(simulate(cfg)) == 0.0

    def test_delayed_run_matches_analytic_probability(self):
        for delta_t in (15.0, -15.0):
            cfg = ideal_config(n_triggers=200_000, delta_t=delta_t, seed=77)
            expected = coincidence_probability(cfg.source_pair())
            p = coincidence_fraction(simulate(cfg))
            sigma = np.sqrt(expected * (1 - expected) / cfg.n_triggers)
            assert abs(p - expected) < 3.0 * sigma

    def test_xi_changes_labels_not_pooled_times(self):
        times = {}
        for xi in (0.0, 1.0):
            s = simulate(ideal_config(n_triggers=50_000, xi=xi, seed=3))
            times[xi] = np.sort(s.timestamps[s.detectors != DET_T])
        assert np.array_equal(times[0.0], times[1.0])

    def test_difference_histogram_matches_density(self):
        # chi-square of the simulated A-B difference spectrum against the
        # analytic coincidence density, 1 ns bins
        cfg = ideal_config(n_triggers=2_000_000, seed=12)
        s = simulate(cfg)
        pairing = pair_events(s)
        d = pairing.delta_ts
        edges = np.arange(-80.0, 80.0 + 1e-9, 1.0)
        counts, _ = np.histogram(d, bins=edges)
        pair = cfg.source_pair()
        mids = 0.5 * (edges[:-1] + edges[1:])
        expected = np.array(
            [coincidence_density(pair, m) for m in mids]
        ) * 1.0 * cfg.n_triggers
        # chi-square needs healthy expectations; the destructive-interference
        # region near dt = 0 is checked in aggregate instead
        ok = expected >= 25.0
        assert ok.sum() > 100
        stat = np.sum((counts[ok] - expected[ok]) ** 2 / expected[ok])
        p_value = chi2.sf(stat, df=int(ok.sum()))
        assert p_value > 1e-3
        dip_expected = expected[~ok].sum()
        dip_observed = counts[~ok].sum()
        assert abs(dip_observed - dip_expected) < 5.0 * np.sqrt(dip_expected + 1.0) + 10.0

    def test_detuning_restores_coincidences(self):
        # with a 76 MHz residual carrier offset the interference term
        # averages down and the coincidence fraction rises toward 1/2
        cfg = ideal_config(n_triggers=200_000, detuning=76.0, seed=21)
        expected = coincidence_probability(cfg.source_pair())
        assert expected > 0.3
        p = coincidence_fraction(simulate(cfg))
        sigma = np.sqrt(expected * (1 - expected) / cfg.n_triggers)
        assert abs(p - expected) < 3.0 * sigma

    def test_jitter_washes_out_interference(self):
        quiet = simulate(ideal_config(n_triggers=100_000, seed=6))
        noisy = simulate(
            ideal_config(n_triggers=100_000, seed=6, excitation_jitter_sigma=30.0)
        )
        assert coincidence_fraction(noisy) > coincidence_fraction(quiet) + 0.05


class TestAccidentalFloorModel:
    # blocked-arm style validation: with one or both sources off, every
    # A-B pair is accidental, so the simulated difference spectrum probes
    # the analytic floor directly

    def run_floor(self, eta_f, eta_s, seed, n=2_000_000, rate=2e-4):
        cfg = ExperimentConfig(
            n_triggers=n, eta_f=eta_f, eta_s=eta_s, xi=0.0,
            bg_rate_a=rate, bg_rate_b=rate, seed=seed,
        )
        p = pair_events(simulate(cfg))
        h = histogram(p.delta_ts, p.n_triggers)
        model = expected_accidental_floor(cfg, h.bin_centers, h.bin_width)
        return h, model

    @pytest.mark.parametrize(
        "eta_f,eta_s,seed", [(0.0, 0.0, 201), (0.1, 0.0, 202), (0.0, 0.1, 203)]
    )
    def test_blocked_arm_spectra_match_model(self, eta_f, eta_s, seed):
        h, model = self.run_floor(eta_f, eta_s, seed)
        observed = h.counts.astype(float)
        predicted = model * h.n_triggers
        # the model is first order in the per-window click probabilities;
        # omitted first-click corrections are O(rate * window) ~ 5 percent
        tol = max(0.07 * predicted.sum(), 4.0 * np.sqrt(predicted.sum()))
        assert abs(observed.sum() - predicted.sum()) < tol
        # per-bin agreement within counting noise plus model tolerance
        sigma = np.sqrt(predicted + 1.0)
        pulls = (observed - predicted) / np.hypot(sigma, 0.07 * predicted)
        assert np.mean(np.abs(pulls) < 4.0) > 0.99

    def test_photon_background_term_follows_the_live_source(self):
        # one live source and background on B only: the floor is that
        # source's survival function from its own envelope start (the
        # heralded one starts delta_t = 20 ns late), scaled by the chance
        # that the photon fell inside the validity window
        x = np.array([-30.0, 10.0, 25.0, 50.0])
        for eta_f, eta_s, tau, t0 in ((0.1, 0.0, TAU_F, 20.0), (0.0, 0.1, TAU_S, 0.0)):
            cfg = ExperimentConfig(
                n_triggers=1, eta_f=eta_f, eta_s=eta_s, delta_t=20.0, bg_rate_b=1e-4
            )
            v_ph = 1.0 - math.exp(-(85.0 - t0) / tau)
            survival = np.exp(-np.clip(x - t0, 0.0, None) / tau)
            np.testing.assert_allclose(
                expected_accidental_floor(cfg, x),
                10.0 * 0.05 * v_ph * 1e-4 * survival,
                rtol=1e-12,
            )

    def test_pedestal_shape_present(self):
        # with one source blocked there is no two-photon signal, yet the
        # photon-background pedestal still lifts the floor at the center
        # well above the wing level
        h, model = self.run_floor(0.1, 0.0, seed=204)
        centers = h.bin_centers
        mid = np.abs(centers) <= 5.0  # central bin, before the tau_f decay
        wing = np.abs(centers) >= 100.0
        assert model[mid].mean() > 1.6 * model[wing].mean()
        observed_ratio = h.values[mid].mean() / h.values[wing].mean()
        assert observed_ratio > 1.3
