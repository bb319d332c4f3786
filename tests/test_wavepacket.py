import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import expon, kstest

from homsim import ConfigError, Envelope, ExperimentConfig, amplitude, sample_emission_time
from homsim.interference import _inverse_cdf
from quadrature import norm


def test_invalid_tau_rejected():
    with pytest.raises(ValueError):
        Envelope(0.0)
    with pytest.raises(ValueError):
        Envelope(-3.0)
    # the model's closed forms overflow or underflow beyond [1e-150, 1e150] ns
    for tau in (math.inf, math.nan, 1e-320, 1e-160, 1e-200, 1e200, 1.1e150):
        with pytest.raises(ValueError, match=r"tau must lie in \[1e-150, 1e\+150\] ns"):
            Envelope(tau)
    for tau in (1e-150, 1e150):
        assert Envelope(tau).tau == tau


def test_invalid_detuning_rejected():
    # beyond [-1e6, 1e6] MHz the overlap's Lorentzian overflows (_BOUNDS)
    for detuning in (math.nan, math.inf, -math.inf, 1e308, 1e200, -1.0000001e6, 2e6):
        with pytest.raises(ValueError, match=r"detuning must lie in \[-1e\+06, 1e\+06\] MHz"):
            Envelope(26.18, detuning=detuning)
    for detuning in (-1e6, 1e6):
        assert Envelope(26.18, detuning=detuning).detuning == detuning


@pytest.mark.parametrize("field, value", [
    ("tau_f", 0.0), ("tau_s", -4.0), ("tau_f", 1e-320), ("tau_s", 1e200),
    ("detuning", 2e6), ("detuning", -1e200),
])
def test_envelope_and_config_give_the_same_text(field, value):
    # one check, in the envelope's words and in the config field's
    with pytest.raises(ValueError) as env_error:
        Envelope(value) if field.startswith("tau") else Envelope(26.18, detuning=value)
    with pytest.raises(ConfigError) as config_error:
        ExperimentConfig(n_triggers=1, **{field: value})
    assert str(config_error.value) == str(env_error.value).replace("tau", field, 1)
    assert str(config_error.value).endswith(f", got {value}")


def test_amplitude_zero_before_start():
    env = Envelope(26.18, t0=0.0)
    assert amplitude(env, -1.0) == 0.0
    assert amplitude(env, -1e-9) == 0.0
    shifted = Envelope(26.18, t0=5.0)
    assert amplitude(shifted, 4.999) == 0.0


def test_amplitude_at_start():
    env = Envelope(26.18)
    assert amplitude(env, 0.0) == pytest.approx(math.sqrt(1.0 / 26.18), abs=1e-12)


def test_amplitude_one_coherence_time_in():
    env = Envelope(13.61)
    expected = math.sqrt(1.0 / 13.61) * math.exp(-0.5)
    assert amplitude(env, 13.61) == pytest.approx(expected, abs=1e-12)


def test_amplitude_vectorized_matches_scalar():
    env = Envelope(20.0, t0=3.0, detuning=40.0)
    ts = np.linspace(-5.0, 60.0, 27)
    arr = amplitude(env, ts)
    for t, v in zip(ts, arr):
        assert v == amplitude(env, float(t))


def test_detuning_changes_phase_not_magnitude():
    plain = Envelope(26.18)
    detuned = Envelope(26.18, detuning=76.0)
    ts = np.linspace(0.0, 120.0, 241)
    a0 = amplitude(plain, ts)
    a1 = amplitude(detuned, ts)
    np.testing.assert_allclose(np.abs(a1), np.abs(a0), atol=1e-15)
    # the carrier really rotates: some samples acquire an imaginary part
    assert np.max(np.abs(a1.imag)) > 0.01


@pytest.mark.parametrize("tau", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("detuning", [-1e6, 1e6])
def test_amplitude_far_out_is_zero_at_the_bounds(tau, detuning):
    # far past the start the decay is 0, where the carrier phase would
    # overflow; warnings are errors, so neither the phase nor the decay's
    # exponent may overflow on the way
    env = Envelope(tau, detuning=detuning)
    ts = np.array([1e306, 1.7e308, math.inf])
    assert amplitude(env, ts).tolist() == [0j, 0j, 0j]
    assert amplitude(env, 1e306) == 0j
    # where the decay leaves a value, the phase turns it without changing its size
    t = 100.0 * tau
    assert abs(amplitude(env, t)) == pytest.approx(math.sqrt(1.0 / tau) * math.exp(-50.0))


def test_sample_emission_time_inverse_cdf():
    env = Envelope(26.18, t0=4.0)
    assert sample_emission_time(env, 0.0) == 4.0
    # u = 1/2 maps to the median, t0 + tau ln 2
    assert sample_emission_time(env, 0.5) == pytest.approx(
        4.0 + 26.18 * math.log(2.0), abs=1e-12
    )
    with pytest.raises(ValueError):
        sample_emission_time(env, 1.0)
    with pytest.raises(ValueError):
        sample_emission_time(env, -0.1)


@given(
    t0=st.floats(-1e15, 1e15),
    tau=st.floats(0.0, exclude_min=True, allow_infinity=False),
    u=st.floats(0.0, 1.0, exclude_max=True),
)
@example(t0=1e15, tau=26.18, u=0.0)
@example(t0=1e15, tau=1e-300, u=0.0)
@example(t0=-1e15, tau=1.7e308, u=math.nextafter(1.0, 0.0))
@example(t0=3.0, tau=13.61, u=math.nextafter(1.0, 0.0))
def test_inverse_cdf_never_precedes_envelope_start(t0, tau, u):
    # the generator's draws rely on this: the direct pair amplitude
    # psi_f(t1) psi_s(t2) is always supported, so every drawn sample can occur
    with np.errstate(over="ignore"):  # a tau near the float maximum gives inf
        assert _inverse_cdf(t0, tau, u) >= t0


def test_sample_emission_time_mean():
    env = Envelope(13.61)
    rng = np.random.default_rng(2024)
    samples = sample_emission_time(env, rng.random(1_000_000))
    # 3 sigma band on the sample mean: 3 * tau / sqrt(N) = 0.041 ns
    assert abs(samples.mean() - 13.61) < 0.05


def test_sample_emission_time_ks():
    env = Envelope(26.18, t0=2.0)
    rng = np.random.default_rng(99)
    samples = sample_emission_time(env, rng.random(100_000))
    stat, _ = kstest(samples, expon(loc=2.0, scale=26.18).cdf)
    assert stat < 0.01


@pytest.mark.parametrize("tau", [0.1, 1.0, 13.61, 26.18, 200.0, 1000.0])
def test_norm_is_one(tau):
    assert norm(Envelope(tau, t0=-7.0)) == pytest.approx(1.0, abs=1e-6)


def test_norm_detuned_unchanged():
    assert norm(Envelope(26.18, detuning=76.0)) == pytest.approx(1.0, abs=1e-6)


def test_norm_truncated_at_one_tau():
    env = Envelope(26.18)
    partial = norm(env, upper=env.t0 + env.tau)
    assert partial == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)
