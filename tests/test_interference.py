import math

import numpy as np
import pytest

from homsim import (
    Envelope,
    SourcePair,
    UnreachableSampleError,
    coincidence_density,
    coincidence_probability,
    coincidence_probability_numeric,
    conditional_outcome_probs,
    dip_ratio,
    visibility_closed_form,
)
from homsim.wavepacket import amplitude

TAU_S, TAU_F = 26.18, 13.61


def default_pair(xi, detuning_s=0.0, t_f=0.0, t_s=0.0):
    return SourcePair(
        Envelope(TAU_F, t0=t_f),
        Envelope(TAU_S, t0=t_s, detuning=detuning_s),
        xi,
    )


def brute_force_outcome_probs(env_f, env_s, xi, t1, t2):
    """Independent oracle: explicit 50:50 beam-splitter amplitude sums.

    Photon from port f and photon from port s scatter with the unitary
    u = [[1, 1], [1, -1]]/sqrt(2) (rows = output A/B, columns = input
    f/s). For detections at fixed times (t1, t2) the amplitude of the
    assignment (t1 -> p1, t2 -> p2) sums over which photon fired which
    detector. A fraction xi^2 of trials interferes; the rest behaves as
    fully distinguishable particles (probabilities add).
    """
    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    pf = [amplitude(env_f, t1), amplitude(env_f, t2)]
    ps = [amplitude(env_s, t1), amplitude(env_s, t2)]
    w_int = {}
    w_dis = {}
    for p1 in (0, 1):
        for p2 in (0, 1):
            amp_1 = u[p1, 0] * u[p2, 1] * pf[0] * ps[1]  # f fires t1, s fires t2
            amp_2 = u[p1, 1] * u[p2, 0] * ps[0] * pf[1]  # s fires t1, f fires t2
            w_int[(p1, p2)] = abs(amp_1 + amp_2) ** 2
            w_dis[(p1, p2)] = abs(amp_1) ** 2 + abs(amp_2) ** 2
    total_int = sum(w_int.values())
    total_dis = sum(w_dis.values())
    out = []
    for keys in (((0, 1), (1, 0)), ((0, 0),), ((1, 1),)):
        wi = sum(w_int[k] for k in keys) / total_int
        wd = sum(w_dis[k] for k in keys) / total_dis
        out.append(xi**2 * wi + (1.0 - xi**2) * wd)
    return tuple(out)


class TestCoincidenceDensity:
    def test_exact_null_at_zero_difference(self):
        pair = default_pair(1.0)
        assert coincidence_density(pair, 0.0) == 0.0
        assert coincidence_density(pair, 0.0, force_quadrature=True) == 0.0

    def test_exact_null_randomized(self):
        # interfering photons never produce a simultaneous coincidence,
        # whatever the envelope parameters or relative delay
        rng = np.random.default_rng(5)
        for _ in range(100):
            tau_f, tau_s = rng.uniform(0.5, 80.0, 2)
            delay = rng.uniform(-50.0, 50.0)
            pair = SourcePair(Envelope(tau_f, t0=max(delay, 0.0)),
                              Envelope(tau_s, t0=max(-delay, 0.0)), 1.0)
            assert coincidence_density(pair, 0.0) == 0.0

    def test_perpendicular_peak_value(self):
        pair = default_pair(0.0)
        expected = 1.0 / (2.0 * (TAU_S + TAU_F))
        assert coincidence_density(pair, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_closed_form_matches_quadrature(self):
        # carrier detunings (f, s) in MHz: none, equal non-zero, equal
        # negative, and unequal of either sign
        detunings = [(0.0, 0.0), (23.0, 23.0), (-41.0, -41.0),
                     (0.0, 76.0), (2.0, -3.5), (-150.0, 120.0)]
        rng = np.random.default_rng(17)
        for det_f, det_s in detunings * 2:
            xi = rng.uniform(0.0, 1.0)
            delay = rng.uniform(-25.0, 25.0)
            pair = SourcePair(
                Envelope(TAU_F, t0=max(delay, 0.0), detuning=det_f),
                Envelope(TAU_S, t0=max(-delay, 0.0), detuning=det_s),
                xi,
            )
            for dt in (-60.0, -7.3, 0.0, 4.1, 18.0, 55.0):
                closed = coincidence_density(pair, dt)
                quad = coincidence_density(pair, dt, force_quadrature=True)
                assert closed == pytest.approx(quad, abs=1e-8)

    def test_detuned_cross_term_suppression(self):
        # a relative carrier offset washes out the interference dip away
        # from dt = 0 but cannot create negative densities
        pair = default_pair(1.0, detuning_s=76.0)
        for dt in (-20.0, -5.0, 0.0, 5.0, 20.0):
            val = coincidence_density(pair, dt)
            assert val >= -1e-12
        assert coincidence_density(pair, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_pointwise_dominance(self):
        par, perp = default_pair(1.0), default_pair(0.0)
        for dt in np.linspace(-120.0, 120.0, 49):
            assert coincidence_density(par, dt) <= 2.0 * coincidence_density(perp, dt) + 1e-15

    def test_density_integrates_to_probability(self):
        cases = [  # xi, delay, detuning of f and of s (MHz)
            (0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (1.0, 12.0, 0.0, 0.0),
            (0.7, -9.0, 0.0, 0.0), (1.0, 0.0, 0.0, 2.0), (1.0, 0.0, 30.0, 30.0),
            (0.9, 7.0, -5.0, 76.0), (0.6, -15.0, 40.0, -12.5),
        ]
        for xi, delay, det_f, det_s in cases:
            pair = SourcePair(
                Envelope(TAU_F, detuning=det_f), Envelope(TAU_S, detuning=det_s), xi
            )
            numeric = coincidence_probability_numeric(pair, delay)
            assert numeric == pytest.approx(
                coincidence_probability(pair, delay), abs=1e-8
            )


class TestCoincidenceProbability:
    def test_perpendicular_is_exactly_half(self):
        assert coincidence_probability(default_pair(0.0)) == 0.5
        assert coincidence_probability(default_pair(0.0), 33.0) == 0.5

    def test_identical_photons_bunch_perfectly(self):
        pair = SourcePair(Envelope(20.0), Envelope(20.0), 1.0)
        assert coincidence_probability(pair) == pytest.approx(0.0, abs=1e-15)

    def test_dissimilar_photons_residual_coincidences(self):
        expected = (TAU_S - TAU_F) ** 2 / (2.0 * (TAU_S + TAU_F) ** 2)
        assert coincidence_probability(default_pair(1.0)) == pytest.approx(
            expected, rel=1e-12
        )

    def test_detuned_probability_matches_quadrature(self):
        pair = default_pair(1.0, detuning_s=76.0)
        closed = coincidence_probability(pair)
        numeric = coincidence_probability_numeric(pair, force_quadrature=True)
        assert closed == pytest.approx(numeric, abs=1e-6)

    def test_visibility_scales_as_xi_squared(self):
        v1 = 1.0 - coincidence_probability(default_pair(1.0)) / 0.5
        for xi in (0.0, 0.3, 0.7, 0.98, 1.0):
            v = 1.0 - coincidence_probability(default_pair(xi)) / 0.5
            assert v == pytest.approx(xi**2 * v1, abs=1e-12)

    def test_monotone_degradation(self):
        pair = default_pair(1.0)
        vis_delay = [1.0 - coincidence_probability(pair, d) / 0.5 for d in (0, 5, 10, 20, 40)]
        assert all(a >= b - 1e-12 for a, b in zip(vis_delay, vis_delay[1:]))
        vis_neg = [1.0 - coincidence_probability(pair, -d) / 0.5 for d in (0, 5, 10, 20, 40)]
        assert all(a >= b - 1e-12 for a, b in zip(vis_neg, vis_neg[1:]))
        vis_det = [
            1.0 - coincidence_probability(default_pair(1.0, detuning_s=d)) / 0.5
            for d in (0.0, 10.0, 40.0, 76.0, 150.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(vis_det, vis_det[1:]))


class TestVisibilityClosedForm:
    def test_reference_value(self):
        v = visibility_closed_form(TAU_S, TAU_F)
        assert v == pytest.approx(4 * TAU_S * TAU_F / (TAU_S + TAU_F) ** 2, rel=1e-15)
        assert 0.885 <= v <= 0.915

    def test_symmetric_and_bounded(self):
        assert visibility_closed_form(TAU_S, TAU_F) == visibility_closed_form(TAU_F, TAU_S)
        assert visibility_closed_form(17.3, 17.3) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            visibility_closed_form(0.0, 10.0)
        with pytest.raises(ValueError):
            visibility_closed_form(10.0, -1.0)


class TestDipRatio:
    def test_reference_values(self):
        v = visibility_closed_form(TAU_S, TAU_F)
        assert dip_ratio(0.0, TAU_S, TAU_F) == pytest.approx(1.0 - v, rel=1e-12)
        assert dip_ratio(10.0, TAU_S, TAU_F) == pytest.approx(
            1.0 - v * math.exp(-10.0 / TAU_S), rel=1e-12
        )
        assert dip_ratio(-10.0, TAU_S, TAU_F) == pytest.approx(
            1.0 - v * math.exp(-10.0 / TAU_F), rel=1e-12
        )

    def test_asymmetry_direction(self):
        # the longer single-atom coherence time makes the positive branch
        # recover more slowly
        assert dip_ratio(10.0, TAU_S, TAU_F) < dip_ratio(-10.0, TAU_S, TAU_F)

    def test_flat_far_from_overlap(self):
        assert dip_ratio(1000.0, TAU_S, TAU_F) == pytest.approx(1.0, abs=1e-9)
        assert dip_ratio(-1000.0, TAU_S, TAU_F) == pytest.approx(1.0, abs=1e-9)

    def test_vectorized(self):
        dts = np.array([-20.0, 0.0, 20.0])
        out = dip_ratio(dts, TAU_S, TAU_F)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(dip_ratio(0.0, TAU_S, TAU_F))

    def test_matches_integrated_closed_forms(self):
        # integrating the coincidence distributions reproduces the dip
        # shape, branch structure included
        for d in (-20.0, -10.0, 0.0, 10.0, 20.0):
            ratio = coincidence_probability(default_pair(1.0), d) / coincidence_probability(
                default_pair(0.0), d
            )
            assert ratio == pytest.approx(dip_ratio(d, TAU_S, TAU_F), abs=1e-8)


class TestConditionalOutcomes:
    def test_equal_times_bunch(self):
        assert conditional_outcome_probs(default_pair(1.0), 7.0, 7.0) == (0.0, 0.5, 0.5)

    def test_distinguishable_route_independently(self):
        p = conditional_outcome_probs(default_pair(0.0), 3.0, 41.0)
        assert p == (0.5, 0.25, 0.25)

    def test_only_swapped_amplitude_supported(self):
        # t1 precedes the heralded envelope's start, so a = psi_f(t1) psi_s(t2)
        # vanishes and only b = psi_f(t2) psi_s(t1) remains: nothing interferes
        pair = default_pair(1.0, detuning_s=3.0, t_f=10.0)
        assert conditional_outcome_probs(pair, 5.0, 20.0) == (0.5, 0.25, 0.25)

    def test_against_brute_force_beam_splitter(self):
        rng = np.random.default_rng(31)
        for _ in range(250):
            tau_f, tau_s = rng.uniform(1.0, 60.0, 2)
            t_s = rng.uniform(-10.0, 10.0)
            det = rng.choice([0.0, 40.0])
            xi = rng.uniform(0.0, 1.0)
            env_f = Envelope(tau_f)
            env_s = Envelope(tau_s, t0=t_s, detuning=det)
            t1 = float(rng.uniform(0.0, 80.0))
            t2 = float(rng.uniform(max(t_s, 0.0), 80.0))
            pair = SourcePair(env_f, env_s, xi)
            got = conditional_outcome_probs(pair, t1, t2)
            want = brute_force_outcome_probs(env_f, env_s, xi, t1, t2)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(8)
        n = 100_000
        pair = default_pair(1.0)
        t1 = rng.exponential(TAU_F, n)
        t2 = rng.exponential(TAU_S, n)
        xi = rng.random(n)
        # vectorized evaluation with per-sample xi via the amplitude law
        a = amplitude(pair.env_f, t1) * amplitude(pair.env_s, t2)
        b = amplitude(pair.env_f, t2) * amplitude(pair.env_s, t1)
        d = np.abs(a) ** 2 + np.abs(b) ** 2
        x = 2.0 * xi**2 * (a * np.conj(b)).real
        p_c = (d - x) / (2 * d)
        p_a = (d + x) / (4 * d)
        total = p_c + 2 * p_a
        np.testing.assert_allclose(total, 1.0, atol=1e-12)
        for arr in (p_c, p_a):
            assert np.all(arr >= -1e-15) and np.all(arr <= 1.0 + 1e-15)
        # the library entry point agrees on a sample of rows
        for i in range(0, n, 20_000):
            got = conditional_outcome_probs(
                SourcePair(pair.env_f, pair.env_s, float(xi[i])),
                float(t1[i]),
                float(t2[i]),
            )
            np.testing.assert_allclose(got, (p_c[i], p_a[i], p_a[i]), atol=1e-12)

    def test_unreachable_sample_rejected(self):
        pair = default_pair(1.0)
        with pytest.raises(UnreachableSampleError):
            conditional_outcome_probs(pair, -5.0, -6.0)
