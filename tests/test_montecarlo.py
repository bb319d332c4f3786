import math
import re
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

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
    coincidence_probability,
    expected_histogram,
    histogram,
    pair_events,
    simulate,
    simulate_histograms,
)
from homsim.interference import _BOUNDS, Envelope, _p_coincidence, amplitude
from homsim import montecarlo
from homsim.analysis import pair_clicks
from homsim.io import DET_A, DET_B, DET_T, _frame_stream, _trigger_ticks
from homsim.montecarlo import _CHUNK, simulate_frames
from helpers import coincidence_fraction, quantize, smallest_period
from quadrature import window

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

    @pytest.mark.parametrize("t", [math.nan, math.inf, [1.0, math.nan]])
    def test_non_finite_rejected(self, t):
        with pytest.raises(ValueError, match="non-finite"):
            quantize(t, 125.0)

    def test_ticks_beyond_int64_rejected(self):
        # 2**63 ticks of 125 ps: the first time whose tick int64 cannot hold
        assert quantize(np.nextafter(2.0**63 * 0.125, 0.0), 125.0) < 2**63
        with pytest.raises(ValueError, match="beyond int64"):
            quantize(np.array([0.0, 2.0**63 * 0.125]), 125.0)

    @pytest.mark.parametrize("resolution", [-125.0, 0.0, math.nan, math.inf])
    def test_bad_resolution_rejected(self, resolution):
        with pytest.raises(ValueError, match=f"positive and finite, got {resolution}"):
            quantize(1.0, resolution)


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
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            ideal_config(seed=-1)

    def test_ticks_must_fit_in_int64(self):
        # 20 triggers of 1e18 ns are 1.6e20 ticks of 125 ps
        with pytest.raises(ConfigError, match="below 2\\*\\*63"):
            ideal_config(n_triggers=20, trigger_period=1e18)
        ideal_config(n_triggers=2**20, trigger_period=2.0**43 * 0.125 - 1.0)
        with pytest.raises(ConfigError, match="below 2\\*\\*63"):
            ideal_config(n_triggers=2**20, trigger_period=2.0**43 * 0.125)
        with pytest.raises(ConfigError, match="below 2\\*\\*63"):
            ideal_config(n_triggers=10**400)  # beyond any float

    @pytest.mark.parametrize("name", ["bg_rate_a", "bg_rate_b"])
    def test_background_per_window_bounded(self, name):
        # at most 1e6 clicks per window: 2000 /ns over the 500 ns window
        # makes a run, and the next rate up is refused
        config = ExperimentConfig(n_triggers=1, eta_f=0.0, eta_s=0.0, **{name: 2000.0})
        clicks = simulate(config).detectors != DET_T
        assert abs(clicks.sum() - 1e6) < 5.0 * math.sqrt(1e6)
        with pytest.raises(ConfigError, match=f"{name} \\* window_length, .* at most 1e6"):
            replace(config, **{name: np.nextafter(2000.0, math.inf)})

    @pytest.mark.parametrize("name, value, message", [
        ("tau_f", 0.0, "tau_f must lie in [1e-150, 1e+150] ns, got 0.0"),
        ("tau_s", -4.0, "tau_s must lie in [1e-150, 1e+150] ns, got -4.0"),
        ("tau_s", 1e-320, "tau_s must lie in [1e-150, 1e+150] ns, got 1e-320"),
        ("tau_f", 1e-160, "tau_f must lie in [1e-150, 1e+150] ns, got 1e-160"),
        ("tau_f", 1e-200, "tau_f must lie in [1e-150, 1e+150] ns, got 1e-200"),
        ("tau_s", 1e200, "tau_s must lie in [1e-150, 1e+150] ns, got 1e+200"),
        ("detuning", 1e200, "detuning must lie in [-1e+06, 1e+06] MHz, got 1e+200"),
        ("detuning", -2e6, "detuning must lie in [-1e+06, 1e+06] MHz, got -2000000.0"),
        ("delta_t", 1e305, "delta_t must lie in [-1e+150, 1e+150] ns, got 1e+305"),
        ("delta_t", -2e150, "delta_t must lie in [-1e+150, 1e+150] ns, got -2e+150"),
        ("excitation_jitter_sigma", -0.5,
         "excitation_jitter_sigma must lie in [0, 1e+150] ns, got -0.5"),
        ("excitation_jitter_sigma", 1e305,
         "excitation_jitter_sigma must lie in [0, 1e+150] ns, got 1e+305"),
        ("window_length", 0.0, "window_length must be positive, got 0.0"),
        ("timestamp_resolution", -125.0, "timestamp_resolution must be positive, got -125.0"),
        ("detector_offset_b", -1.0, "detector_offset_b must lie in [0, inf] ns, got -1.0"),
        ("bg_rate_a", -1e-3, "bg_rate_a must lie in [0, inf] /ns, got -0.001"),
        ("n_triggers", 0, "n_triggers must be positive, got 0"),
    ], ids=["tau_f", "tau_s", "tau_s-1e-320", "tau_f-1e-160", "tau_f-1e-200", "tau_s-1e200",
            "detuning-1e200", "detuning-2e6", "delta_t-1e305", "delta_t-minus-2e150", "jitter",
            "jitter-1e305", "window_length", "timestamp_resolution", "detector_offset",
            "bg_rate", "n_triggers"])
    def test_out_of_range_value_names_its_field(self, name, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ideal_config(**{name: value})

    @pytest.mark.parametrize("delta_t", [1e150, -1e150])
    def test_delay_at_its_bound_runs(self, delta_t):
        # at the detuning bound too, every two-photon trial's phase stays
        # finite (warnings are errors); the delayed photon starts far past
        # the window, so one click per trigger is left
        stream = simulate(ideal_config(n_triggers=100, detuning=1e6, delta_t=delta_t))
        assert np.count_nonzero(stream.detectors != DET_T) == 100

    @pytest.mark.parametrize("detuning", [1e6, -1e6])
    def test_jitter_at_its_bound_runs(self, detuning):
        # the jitter's bound is the delay's: every two-photon trial's phase
        # stays finite (warnings are errors); each single-atom photon starts
        # before its trigger or far past the window, so the gate keeps the
        # heralded photon's click alone
        config = ideal_config(n_triggers=100, detuning=detuning, excitation_jitter_sigma=1e150)
        assert np.count_nonzero(simulate(config).detectors != DET_T) == 100

    # each end of each field's bound: the finite ones, and the bound's kind
    BOUND_ENDS = [
        pytest.param(name, end, id=f"{name}-{'lo' if i == 0 else 'hi'}")
        for name, kind in montecarlo._BOUNDED.items()
        for i, end in enumerate(_BOUNDS[kind][:2])
        if math.isfinite(end)
    ]

    @pytest.mark.parametrize("name, end", BOUND_ENDS)
    def test_bound_ends_accepted_and_values_past_them_rejected(self, name, end):
        assert getattr(ideal_config(**{name: end}), name) == end
        lo, hi, _ = _BOUNDS[montecarlo._BOUNDED[name]]
        past = np.nextafter(end, -math.inf if end == lo else math.inf)
        with pytest.raises(ConfigError) as info:
            ideal_config(**{name: past})
        message = str(info.value)
        assert message.startswith(f"{name} must lie in [{lo:g}, {hi:g}]")
        assert message.endswith(f", got {past}")

    FLOAT_FIELDS = [
        "trigger_period", "eta_f", "eta_s", "tau_f", "tau_s", "delta_t",
        "excitation_jitter_sigma", "detuning", "xi", "bg_rate_a", "bg_rate_b",
        "window_length", "timestamp_resolution", "detector_offset_a", "detector_offset_b",
    ]

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, pytest.param(10**400, id="int-beyond-float"),
    ])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            ideal_config(**{name: value})

    @pytest.mark.parametrize("value", ["0.5", None, 1j], ids=["str", "None", "complex"])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_non_real_float_rejected(self, name, value):
        message = f"{name} must be a real number, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ideal_config(**{name: value})

    @pytest.mark.parametrize("name, value", [("n_triggers", 1000.0), ("seed", 1.5)])
    def test_non_integer_count_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an integer, got {value!r}"):
            ideal_config(**{name: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = ideal_config(n_triggers=np.int64(1000), seed=np.uint32(7))
        # kept as ints, so the run's config hash is that of the same run given ints
        assert type(cfg.n_triggers) is int and type(cfg.seed) is int
        assert simulate(cfg).timestamps.tobytes() == simulate(
            ideal_config(n_triggers=1000, seed=7)
        ).timestamps.tobytes()

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

    def test_frames_are_trigger_aligned_pieces_of_the_stream(self):
        cfg = ideal_config(n_triggers=2 * _CHUNK + 5, trigger_period=500.125,
                           bg_rate_a=2e-3, bg_rate_b=2e-3)
        frames = list(simulate_frames(cfg, workers=2))
        assert [(f.first, f.n_triggers) for f in frames] == [(0, _CHUNK), (_CHUNK, _CHUNK),
                                                            (2 * _CHUNK, 5)]
        assert all(f.grid == (500.125, 125.0, 4000) for f in frames)
        whole = simulate(cfg)
        pieces = [_frame_stream(f) for f in frames]
        assert all(p.detectors[0] == DET_T and p.is_sorted() for p in pieces)
        for column in ("detectors", "timestamps"):
            joined = np.concatenate([getattr(p, column) for p in pieces])
            assert joined.tobytes() == getattr(whole, column).tobytes()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_chunks_made_as_they_are_asked_for(self, monkeypatch, workers):
        made = []
        chunk = montecarlo._simulate_chunk
        monkeypatch.setattr(montecarlo, "_CHUNK", 100)
        monkeypatch.setattr(montecarlo, "_simulate_chunk",
                            lambda config, *span: made.append(span) or chunk(config, *span))
        frames = simulate_frames(ideal_config(n_triggers=1000), workers=workers)
        assert made == []
        for k, _ in enumerate(frames):
            assert len(made) <= k + 1 + workers * (workers > 1)
        assert sorted(made) == [(first, 100, first // 100) for first in range(0, 1000, 100)]

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


def reference_live(rng, count, eta):
    """Sorted trigger indices of one source's photons: every trigger at
    eta 1 and none at eta 0, with no draw; otherwise a binomial count,
    placed by a uniform sample without replacement."""
    if eta == 1.0:
        return np.arange(count)
    if eta == 0.0:
        return np.zeros(0, dtype=np.int64)
    n = rng.binomial(count, eta)
    return np.sort(rng.choice(count, n, replace=False, shuffle=False))


def reference_simulate_chunk(config, first, count, chunk_idx):
    """The chunk generator as per-detector lists of (offset, owner), with
    the two-photon triggers found by np.intersect1d and the outcomes drawn
    from the complex-amplitude law: the reference for the live-photon,
    offset-tick kernel. Returns the chunk's (detectors, ticks)."""
    rng = np.random.default_rng([config.seed, chunk_idx])
    res = config.timestamp_resolution
    trig_ticks = quantize((first + np.arange(count, dtype=float)) * config.trigger_period, res)

    on_f = reference_live(rng, count, config.eta_f)
    on_s = reference_live(rng, count, config.eta_s)
    u_f = rng.random(on_f.size)
    u_s = rng.random(on_s.size)
    route = rng.random(on_f.size + on_s.size) < 0.5
    route_f, route_s = route[: on_f.size], route[on_f.size :]
    jitter = np.zeros(on_s.size)
    if config.excitation_jitter_sigma > 0.0:
        jitter = rng.standard_normal(on_s.size) * config.excitation_jitter_sigma
    both, in_f, in_s = np.intersect1d(on_f, on_s, assume_unique=True, return_indices=True)
    r_outcome = rng.random(both.size)

    # emission times relative to the trigger
    t0_f = np.full(on_f.size, max(config.delta_t, 0.0))
    t0_s = max(-config.delta_t, 0.0) + jitter
    t_f = t0_f - config.tau_f * np.log1p(-u_f)
    t_s = t0_s - config.tau_s * np.log1p(-u_s)

    clicks = {DET_A: ([], []), DET_B: ([], [])}  # detector -> (offsets, owners)

    def send(times, owners, to_a):
        for code, mask in ((DET_A, to_a), (DET_B, ~to_a)):
            clicks[code][0].append(times[mask])
            clicks[code][1].append(owners[mask])

    lone_f = np.ones(on_f.size, dtype=bool)
    lone_f[in_f] = False
    lone_s = np.ones(on_s.size, dtype=bool)
    lone_s[in_s] = False
    send(t_f[lone_f], on_f[lone_f], route_f[lone_f])
    send(t_s[lone_s], on_s[lone_s], route_s[lone_s])

    if both.size:
        t1, t2 = t_f[in_f], t_s[in_s]
        s1, s2 = t0_f[in_f], t0_s[in_s]
        p_c, _, _ = reference_outcome_probs(
            reference_amplitude(config.tau_f, 0.0, t1, s1)
            * reference_amplitude(config.tau_s, config.detuning, t2, s2),
            reference_amplitude(config.tau_f, 0.0, t2, s1)
            * reference_amplitude(config.tau_s, config.detuning, t1, s2),
            config.xi,
        )
        coinc = r_outcome < p_c
        f_to_a = route_f[in_f]
        send(t1, both, f_to_a)
        # coincidence: the other detector; bunching: the heralded photon's
        send(t2, both, f_to_a != coinc)

    w = config.window_length
    for code, rate in ((DET_A, config.bg_rate_a), (DET_B, config.bg_rate_b)):
        if rate > 0.0:
            n_bg = rng.poisson(rate * w * count)
            owners = rng.integers(count, size=n_bg)
            clicks[code][0].append(rng.random(n_bg) * w)
            clicks[code][1].append(owners)

    n_w = quantize(w, res)  # whole ticks in the window
    det_parts = [np.full(count, DET_T, dtype=np.uint8)]
    tick_parts = [trig_ticks]
    for code, offset in ((DET_A, config.detector_offset_a), (DET_B, config.detector_offset_b)):
        times = np.concatenate(clicks[code][0]) + offset
        owners = np.concatenate(clicks[code][1])
        inside = times >= 0.0
        rel = quantize(times[inside], res)
        owners = owners[inside][rel < n_w]
        rel = rel[rel < n_w]
        det_parts.append(np.full(rel.size, code, dtype=np.uint8))
        tick_parts.append(trig_ticks[owners] + rel)

    return np.concatenate(det_parts), np.concatenate(tick_parts)


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
# the `homsim dip` regime over two chunks: every trigger's photons take
# the conditional outcome law
@example(
    config=ExperimentConfig(n_triggers=_CHUNK + 1234, eta_f=1.0, eta_s=1.0, xi=1.0, seed=8),
    workers=2,
)
# 1 ps ticks over two chunks, the run's 6.6e18 ticks within a factor 2 of
# 2**63: windows of 9.9e13 ticks put the chunk's click keys, (owner * n_w
# + offset) * 2 + detector, up to 1.3e19, near 2**64, and a background
# click about every window reaches across it
@example(
    config=ExperimentConfig(
        n_triggers=_CHUNK + 3, trigger_period=1e11, window_length=9.9e10, eta_f=0.05,
        eta_s=0.05, bg_rate_a=1e-11, bg_rate_b=1e-11, timestamp_resolution=1.0, seed=9,
    ),
    workers=1,
)
def test_stream_matches_reference_generator(config, workers):
    det, ticks = reference_simulate(config)
    stream = simulate(config, workers=workers)
    assert stream.detectors.tobytes() == det.tobytes()
    assert stream.timestamps.tobytes() == ticks.tobytes()


@settings(max_examples=40, deadline=None)
@given(config=generator_configs(), shift=st.integers(1, 10**10))
def test_offset_ticks_do_not_depend_on_the_trigger_index(config, shift):
    # the chunk's triggers moved `shift` triggers later in the run
    count = min(config.n_triggers, _CHUNK)
    clicks = montecarlo._simulate_chunk(config, 0, count, 0)
    moved = montecarlo._simulate_chunk(config, shift, count, 0)
    # offsets, owners and detectors alike
    for column, moved_column in zip(clicks, moved, strict=True):
        assert moved_column.tobytes() == column.tobytes()


@settings(max_examples=40, deadline=None)
@given(config=generator_configs(), first=st.one_of(st.just(0), st.integers(0, 10**10)))
# back-to-back windows late in a long run: the detector offset pushes a
# dense background across each window's end, a few clicks into every tick
@example(
    config=ExperimentConfig(
        n_triggers=_CHUNK, trigger_period=500.125, bg_rate_a=2e-3, bg_rate_b=2e-3,
        detector_offset_a=60.0, seed=4,
    ),
    first=10**10,
)
@example(  # the same at 1 ps ticks, where the float trigger times lose a tick
    config=ExperimentConfig(
        n_triggers=3000, trigger_period=smallest_period(500.0, 1.0), eta_f=1.0, eta_s=1.0,
        bg_rate_a=2e-3, bg_rate_b=2e-3, timestamp_resolution=1.0, detector_offset_a=60.0,
        seed=4,
    ),
    first=10**10,
)
def test_every_click_ticks_below_the_next_trigger(config, first):
    count = min(config.n_triggers, _CHUNK)
    frame = montecarlo._frame(config, (first, count, 0))
    offsets, owners, detectors = frame.clicks
    trig_ticks = _trigger_ticks(frame.grid, first, count)
    following = quantize(
        (first + np.arange(1, count + 1, dtype=float)) * config.trigger_period,
        config.timestamp_resolution,
    )
    assert np.all((detectors == DET_A) | (detectors == DET_B))
    assert np.all(offsets >= 0)
    assert np.all(trig_ticks[owners] + offsets < following[owners])


def test_sampler_laws(monkeypatch):
    # 16 chunks at the paper's efficiency with background: photons per
    # source follow Binomial(n, eta) and background clicks Poisson(rate w n)
    eta, rate, n = 0.05, 1e-4, 16 * _CHUNK
    cfg = ExperimentConfig(n_triggers=n, eta_f=eta, eta_s=eta, bg_rate_a=rate,
                           bg_rate_b=rate, seed=17)
    photons = []
    live = montecarlo._live

    def counted(*args):
        on = live(*args)
        photons.append(on.size)  # heralded, then single-atom, per chunk
        return on

    monkeypatch.setattr(montecarlo, "_live", counted)
    clicks = sum(f.clicks[2].size for f in simulate_frames(cfg))
    n_f, n_s = sum(photons[0::2]), sum(photons[1::2])
    for count in (n_f, n_s):
        assert abs(count - n * eta) < 4.0 * math.sqrt(n * eta * (1.0 - eta))
    # a photon misses the 500 ns window with probability exp(-500 / 26.18)
    # at most, so the clicks beyond the photons are the background
    mean = 2.0 * rate * cfg.window_length * n
    assert abs(clicks - n_f - n_s - mean) < 4.0 * math.sqrt(mean)


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
@example(  # the `homsim dip` regime over two chunks
    config=ExperimentConfig(n_triggers=_CHUNK + 1234, eta_f=1.0, eta_s=1.0, xi=1.0, seed=8),
    workers=2,
    binning=(85.0, 10.0, 255.0),
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


@pytest.mark.parametrize("workers", [1, 2])
def test_fused_histograms_memory_does_not_grow_with_run_length(workers, monkeypatch):
    # `homsim dip` at unit efficiency: three times the chunks, each paired
    # and binned where it is made, in about the same memory. The chunks of
    # each batch of `workers` are made one at a time and all held until the
    # last is made, so both scans overlap their chunks the same way however
    # the host schedules the threads.
    generate = montecarlo._simulate_chunk
    barrier, lock = threading.Barrier(workers, timeout=60), threading.Lock()

    def batched(*args):
        barrier.wait()
        with lock:
            chunk = generate(*args)
        barrier.wait()
        return chunk

    monkeypatch.setattr(montecarlo, "_simulate_chunk", batched)
    peaks = {}
    for n_chunks in (2, 6):
        config = ideal_config(n_triggers=n_chunks * _CHUNK)
        tracemalloc.start()
        try:
            simulate_histograms([config], 85.0, 10.0, 255.0, workers=workers)
            peaks[n_chunks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[6] < 1.3 * peaks[2], peaks


def test_fused_chunk_memory():
    # `homsim dip` at unit efficiency holds one click list per chunk: one
    # copy of each photon's time, no per-detector copies and no trigger
    # ticks. The bound counts the bytes numpy allocates, not the RSS.
    config = ideal_config(n_triggers=_CHUNK)
    tracemalloc.start()
    try:
        simulate_histograms([config], 85.0, 10.0, 255.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


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


class TestBlockedArmSpectra:
    # blocked-arm style validation: with one or both sources off, every
    # A-B pair is accidental, so the simulated difference spectrum probes
    # the exact model's background part directly

    def run_floor(self, eta_f, eta_s, seed, n=2_000_000, rate=2e-4):
        cfg = ExperimentConfig(
            n_triggers=n, eta_f=eta_f, eta_s=eta_s, xi=0.0,
            bg_rate_a=rate, bg_rate_b=rate, seed=seed,
        )
        p = pair_events(simulate(cfg))
        h = histogram(p.delta_ts, p.n_triggers)
        background = expected_histogram(cfg) - expected_histogram(
            replace(cfg, bg_rate_a=0.0, bg_rate_b=0.0)
        )
        return h, background

    @pytest.mark.parametrize(
        "eta_f,eta_s,seed", [(0.0, 0.0, 201), (0.1, 0.0, 202), (0.0, 0.1, 203)]
    )
    def test_blocked_arm_spectra_match_model(self, eta_f, eta_s, seed):
        h, model = self.run_floor(eta_f, eta_s, seed)
        observed = h.counts.astype(float)
        expected = model * h.n_triggers
        # the exact histogram is the mean of the Monte Carlo's, in total
        # and bin by bin, to counting noise
        assert abs(observed.sum() - expected.sum()) < 4.0 * np.sqrt(expected.sum())
        assert np.mean(np.abs(observed - expected) < 4.0 * np.sqrt(expected + 1.0)) > 0.99

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


class TestExpectedHistogram:
    @pytest.mark.parametrize(
        "resolution,seed", [(125.0, 211), (2500.0, 212)]
    )
    def test_matches_monte_carlo(self, resolution, seed):
        # perpendicular photons from both sources, a delay, detector
        # offsets and unequal backgrounds; 2.5 ns ticks put four ticks in
        # a bin, so the tick grid shows
        cfg = ExperimentConfig(
            n_triggers=300_000, eta_f=0.3, eta_s=0.5, xi=0.0, delta_t=12.0,
            detector_offset_a=3.3, bg_rate_a=2e-4, bg_rate_b=1e-3,
            timestamp_resolution=resolution, seed=seed,
        )
        (h,) = simulate_histograms([cfg], 85.0, 10.0, 205.0)
        expected = expected_histogram(cfg, 85.0, 10.0, 205.0) * cfg.n_triggers
        assert abs(h.counts.sum() - expected.sum()) < 4.0 * np.sqrt(expected.sum())
        sel = expected >= 5.0
        stat = np.sum((h.counts[sel] - expected[sel]) ** 2 / expected[sel])
        assert sel.sum() > 30 and chi2.sf(stat, sel.sum()) > 1e-4

    def test_zero_background_limit(self):
        # Without background the only pairs are the photon pairs, so each
        # bin is eta_f eta_s times the bin integral of coincidence_density
        # (at xi = 0 two photons reach different detectors half the time,
        # and the density integrates to 1/2), up to two effects:
        # - the tick grid: a pair's tick difference is floor(x) or
        #   floor(x) + 1 ticks for a time difference of x ticks, so a bin
        #   [lo, hi) holds every x in [lo, hi - 1], none outside (lo - 1,
        #   hi), and some of the two ticks below its edges: it gains at
        #   most the mass of the tick below lo and loses at most that of
        #   the tick below hi;
        # - the windows: the validity window drops the pairs whose photons
        #   both come after it, and the gate those with a photon after the
        #   acquisition window.
        cfg = ExperimentConfig(n_triggers=1, eta_f=0.3, eta_s=0.5, xi=0.0, delta_t=12.0)
        pair = cfg.source_pair()
        model = expected_histogram(cfg, 85.0, 10.0, 205.0) / (cfg.eta_f * cfg.eta_s)

        def after(t):  # P(each photon comes at or after t)
            return [math.exp(-max(t - env.t0, 0.0) / env.tau) for env in (pair.env_f, pair.env_s)]

        late = math.prod(after(85.0)) + sum(after(cfg.window_length))
        tick = cfg.timestamp_resolution / 1000.0
        edges = np.arange(-205.0, 206.0, 10.0)
        for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            exact = window(pair, lo, hi)
            bound = max(window(pair, lo - tick, lo), window(pair, hi - tick, hi)) + late
            assert abs(model[k] - exact) <= bound, (lo, model[k], exact, bound)

    def test_one_click_per_trigger_never_pairs(self):
        cfg = ExperimentConfig(n_triggers=1, eta_f=1.0, eta_s=0.0)
        assert not expected_histogram(cfg).any()
        # a window shorter than a tick keeps no click at all
        short = ExperimentConfig(n_triggers=1, xi=0.0, bg_rate_a=1.0, bg_rate_b=1.0, window_length=0.1)
        assert not expected_histogram(short).any()

    @pytest.mark.parametrize(
        "kw", [dict(eta_f=0.1, eta_s=0.1, xi=0.5), dict(eta_s=0.1, excitation_jitter_sigma=1.0)]
    )
    def test_dependent_photons_are_not_modelled(self, kw):
        with pytest.raises(NotImplementedError):
            expected_histogram(ExperimentConfig(n_triggers=1, **kw))

    @pytest.mark.parametrize("window", [-1.0, math.inf, math.nan])
    def test_bad_validity_window_rejected(self, window):
        with pytest.raises(ValueError, match="valid_window"):
            expected_histogram(ExperimentConfig(n_triggers=1, xi=0.0), window)


# expected_histogram's cost grows as the square of the window's ticks
MODEL_TICKS = 4000


def near_ticks(j, form, resolution):
    """A length in ns of about `j` ticks of `resolution` ps: the float j
    ticks make ("on"), the float below or above it, or half a tick more."""
    tick = resolution / 1000.0
    on = j * tick
    return float({
        "on": on, "below": np.nextafter(on, 0.0), "above": np.nextafter(on, np.inf),
        "half": (j + 0.5) * tick,
    }[form])


def ticks_around(length, resolution):
    """Six consecutive ticks of `resolution` ps around `length` ns."""
    first = max(round(length / (resolution / 1000.0)) - 3, 0)
    return np.arange(first, first + 6)


def gate_end(config):
    """The whole ticks of `_simulate_chunk`'s gate, read from photons half
    a tick into, and at the start of, each tick around the window's end."""
    res = config.timestamp_resolution
    ticks = ticks_around(config.window_length, res)
    times = np.concatenate((ticks + 0.5, ticks)) * (res / 1000.0)
    want = quantize(times, res)
    clicks = (times, np.arange(times.size), np.full(times.size, DET_A, np.uint8))
    with mock.patch.object(montecarlo, "_photons", lambda rng, config, count: clicks):
        offsets, owner, _ = montecarlo._simulate_chunk(
            replace(config, bg_rate_a=0.0, bg_rate_b=0.0), 0, times.size, 0
        )
    assert offsets.tolist() == want[owner].tolist()
    # the mid-tick photons put the end inside the ticks, and the gate keeps
    # every photon, whatever its place in its tick, whose tick lies before it
    n_w = int(offsets.max()) + 1 if offsets.size else 0
    assert ticks[0] <= n_w <= ticks[-1] and (n_w > ticks[0] or ticks[0] == 0)
    assert owner.tolist() == np.flatnonzero(want < n_w).tolist()
    return n_w


def last_valid_tick(length, resolution):
    """The last offset tick that `pair_clicks` counts inside a validity
    window of `length` ns, read from one click in each tick around it."""
    ticks = ticks_around(length, resolution)
    clicks = (ticks.copy(), np.arange(ticks.size), np.full(ticks.size, DET_A, np.uint8))
    valid = pair_clicks(ticks.size, clicks, length, resolution).valid
    n_valid = int(valid.sum())
    # a click on the last valid tick is valid, and one tick later it is not
    assert valid[:n_valid].all() and 0 < n_valid < ticks.size
    return int(ticks[n_valid - 1])


FORMS = st.sampled_from(["on", "below", "above", "half"])


@settings(max_examples=100, deadline=None)
@given(
    resolution=st.sampled_from([1.0, 3.0, 62.5, 125.0, 1000.0, 2500.0]),
    window=st.tuples(st.integers(1, 2000), FORMS),
    valid=st.tuples(st.integers(0, 2002), FORMS),
)
@example(resolution=125.0, window=(4000, "below"), valid=(680, "on"))  # nextafter(500, 0); 85 ns
@example(resolution=125.0, window=(4000, "on"), valid=(4000, "below"))
@example(resolution=1.0, window=(12_345_678, "on"), valid=(12_345_677, "above"))  # 1e7 ticks
# 50383.215 ns: the first decimal length at 3 ps whose ticks v * 1000 / r and
# v * (1000 / r) count differently (16,794,405 against 16,794,404)
@example(resolution=3.0, window=(16_794_405, "below"), valid=(16_794_405, "on"))
def test_tick_rules_agree_across_layers(resolution, window, valid):
    """The generator's gate, the pairing's validity window and the exact
    model count the ticks of a length alike, on lengths on and beside
    whole numbers of ticks; each layer is read through its behaviour. The
    model is read up to MODEL_TICKS."""
    w, v = near_ticks(*window, resolution), near_ticks(*valid, resolution)
    tick = resolution / 1000.0
    config = ExperimentConfig(
        n_triggers=1, eta_f=0.0, eta_s=0.0, xi=0.0, bg_rate_a=1.0 / w, bg_rate_b=1.0 / w,
        window_length=w, trigger_period=2.0 * w + 1.0, timestamp_resolution=resolution,
    )
    n_w = gate_end(config)
    # a validity window as long as the acquisition window counts the
    # gate's whole ticks: it ends on tick n_w, the first the gate drops, as
    # a click on the window's end tick is valid
    assert last_valid_tick(w, resolution) == n_w
    last_valid = last_valid_tick(v, resolution)
    if n_w > MODEL_TICKS:
        return
    # With one bin per tick difference, the model reaches the gate's
    # extreme differences, -(n_w - 1) and n_w - 1 ticks: background on
    # both detectors gives them mass.
    span = n_w + 2
    binning = (tick, (span + 0.5) * tick)
    differences = np.flatnonzero(expected_histogram(config, v, *binning)) - span
    assert differences.min() == -differences.max() == 1 - n_w

    def model_from(j):
        # the model when each detector's clicks start a quarter tick into tick j
        offset = (j + 0.25) * tick
        moved = replace(config, detector_offset_a=offset, detector_offset_b=offset)
        return expected_histogram(moved, v, *binning)

    # the model's validity window ends on the pairing's last valid tick
    if last_valid + 1 < n_w:
        assert model_from(last_valid).any() and not model_from(last_valid + 1).any()
