"""Acceptance suite: every release criterion, one test each.

Each test prints a single `[criterion N] ...: PASS/FAIL` line; run with
`pytest tests/test_acceptance.py -v -s` to see them as they complete.
Monte Carlo checks use fixed seeds, so the suite is deterministic.
"""

import contextlib
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import chisquare

import homsim as h
import quadrature
from helpers import coincidence_fraction, conditional_outcome_probs, stream_from_records

TAU_S, TAU_F = 26.18, 13.61
P_PAR_SYNC = (TAU_S - TAU_F) ** 2 / (2.0 * (TAU_S + TAU_F) ** 2)


@contextlib.contextmanager
def criterion(num, label):
    notes = []
    start = time.time()
    failed = True
    try:
        yield notes
        failed = False
    finally:
        status = "FAIL" if failed else "PASS"
        detail = "; ".join(notes)
        print(
            f"\n[criterion {num}] {label}: {status}"
            + (f" ({detail}; {time.time() - start:.1f}s)" if detail else f" ({time.time() - start:.1f}s)")
        )


def ideal_pair(xi, delay=0.0):
    return h.SourcePair(h.Envelope(TAU_F, t0=delay), h.Envelope(TAU_S), xi)


def run_histograms(n_triggers, seeds, half_range=255.0, **kw):
    """Simulate a parallel/perpendicular pair of runs and histogram them."""
    configs = [
        h.ExperimentConfig(n_triggers=n_triggers, xi=xi, seed=seed, **kw)
        for xi, seed in ((1.0, seeds[0]), (0.0, seeds[1]))
    ]
    h_par, h_perp = h.simulate_histograms(configs, 85.0, 10.0, half_range)
    return h_par, h_perp


def test_criterion_1_closed_form_visibility():
    with criterion(1, "closed-form visibility for the measured coherence times") as notes:
        v = h.visibility_closed_form(26.18, 13.61)
        notes.append(f"V = {v:.4f}")
        assert 0.885 <= v <= 0.915


def test_criterion_2_oracle_self_consistency():
    with criterion(2, "quadrature agrees with the closed forms") as notes:
        p_perp = quadrature.probability(ideal_pair(0.0))
        assert abs(p_perp - 0.5) < 1e-6
        p_par = quadrature.probability(ideal_pair(1.0))
        assert abs(p_par - P_PAR_SYNC) < 1e-6
        notes.append(f"P_perp err {abs(p_perp - 0.5):.1e}")
        notes.append(f"P_par err {abs(p_par - P_PAR_SYNC):.1e}")
        worst = 0.0
        for delay in (-20.0, -10.0, 0.0, 10.0, 20.0):
            ratio = h.interference.coincidence_probability_numeric(
                ideal_pair(1.0, delay)
            ) / h.interference.coincidence_probability_numeric(ideal_pair(0.0, delay))
            worst = max(worst, abs(ratio - h.dip_ratio(delay, TAU_S, TAU_F)))
        notes.append(f"dip ratio err {worst:.1e}")
        assert worst < 1e-6


def test_criterion_3_exact_null():
    with criterion(3, "interfering coincidence density vanishes at zero delay") as notes:
        rng = np.random.default_rng(303)
        for _ in range(100):
            tau_f, tau_s = rng.uniform(0.3, 120.0, 2)
            delay = rng.uniform(-60.0, 60.0)
            pair = h.SourcePair(
                h.Envelope(tau_f, t0=max(delay, 0.0)),
                h.Envelope(tau_s, t0=max(-delay, 0.0)),
                1.0,
            )
            assert h.coincidence_density(pair, 0.0) == 0.0
        notes.append("100 randomized parameter sets, exact zeros")


def test_criterion_4_monte_carlo_vs_oracle():
    with criterion(4, "ideal Monte Carlo reproduces the total coincidence probabilities") as notes:
        n = 1_000_000
        frac = {}
        for xi, seed in ((0.0, 401), (1.0, 402)):
            cfg = h.ExperimentConfig(n_triggers=n, eta_f=1.0, eta_s=1.0, xi=xi, seed=seed)
            frac[xi] = coincidence_fraction(h.simulate(cfg))
        notes.append(f"xi=0: {frac[0.0]:.4f}")
        notes.append(f"xi=1: {frac[1.0]:.5f}")
        assert abs(frac[0.0] - 0.5) <= 0.0015
        assert abs(frac[1.0] - P_PAR_SYNC) <= 0.0007


def test_criterion_5_dip_reproduction():
    with criterion(5, "Monte Carlo delay scan traces the asymmetric dip") as notes:
        delays = [-40.0, -30.0, -20.0, -10.0, 0.0, 10.0, 20.0, 30.0, 40.0]
        n = 120_000  # >= 1e5 two-photon events per point at unit efficiency
        points = {}
        for k, delta_t in enumerate(delays):
            h_par, h_perp = run_histograms(
                n, seeds=(500 + 2 * k, 501 + 2 * k),
                eta_f=1.0, eta_s=1.0, delta_t=delta_t,
            )
            # wide window: the +-75 ns production default clips the
            # interfering tail, this comparison needs the full integral
            (point,) = h.dip_curve([(delta_t, h_par, h_perp)], t_c=245.0)
            points[delta_t] = point
            model = h.dip_ratio(delta_t, TAU_S, TAU_F)
            assert abs(point.ratio - model) < 3.0 * point.sigma, (
                f"delay {delta_t}: ratio {point.ratio:.4f} vs model {model:.4f} "
                f"(sigma {point.sigma:.4f})"
            )
        assert points[10.0].ratio < points[-10.0].ratio
        notes.append(
            f"9 points within 3 sigma; ratio(+10)={points[10.0].ratio:.3f} < "
            f"ratio(-10)={points[-10.0].ratio:.3f}"
        )


def test_criterion_6_raw_and_corrected_visibility():
    with criterion(6, "raw 62% and corrected 93% visibilities reproduced") as notes:
        eta, n = 0.05, 3_000_000
        q2 = eta * eta
        base = dict(
            n_triggers=1000, eta_f=eta, eta_s=eta, tau_f=TAU_F, tau_s=TAU_S, xi=0.0
        )

        s_perp_25 = quadrature.window(ideal_pair(0.0), -25.0, 25.0)
        s_par_25 = quadrature.window(ideal_pair(1.0), -25.0, 25.0)
        sel_25 = h.histogram([], 1).window_bins(25.0)  # the bins of expected_histogram(cfg)

        # Analytic raw visibility as a function of the background rate;
        # bisected so the simulated raw V lands on the reported 62%. The
        # perpendicular +-25 ns window is the exact expected histogram's.
        # The parallel one is that less eta^2 times the interference term,
        # which leaves out the background clicks that pre-empt interfering
        # pairs: O(rate * tau), about 0.3% of the interference term.
        def raw_visibility_model(rate):
            cfg = h.ExperimentConfig(bg_rate_a=rate, bg_rate_b=rate, **base)
            perp = h.expected_histogram(cfg)[sel_25].sum()
            return q2 * (s_perp_25 - s_par_25) / perp

        rate = brentq(lambda r: raw_visibility_model(r) - 0.62, 1e-9, 1e-2, xtol=1e-14)
        notes.append(f"bisected bg rate {rate:.5e} /ns")

        h_par, h_perp = run_histograms(
            n, seeds=(101, 102), eta_f=eta, eta_s=eta,
            bg_rate_a=rate, bg_rate_b=rate, half_range=205.0,
        )
        raw = h.visibility(h_par, h_perp, 25.0)
        notes.append(f"raw V = {raw.v:.3f} +- {raw.sigma_v:.3f}")
        assert 0.62 - 0.04 <= raw.v <= 0.62 + 0.04

        # Accidental correction. The wing estimate pins the flat floor
        # from the data; the background part of the exact model (at xi =
        # 0, the histogram less its zero-background self) supplies the
        # photon-background pedestal shape that a constant cannot capture
        # (the pedestal has the same two-exponential profile as the
        # non-interfering coincidence distribution, so a wing constant
        # undercorrects the window).
        g_const = h.estimate_accidentals(h_par, h_perp)
        wing_level = g_const.g_acc
        cfg = h.ExperimentConfig(bg_rate_a=rate, bg_rate_b=rate, **base)
        model = h.expected_histogram(cfg) - h.expected_histogram(
            replace(cfg, bg_rate_a=0.0, bg_rate_b=0.0)
        )
        wing_sel = np.abs(h_par.bin_centers) >= 100.0
        g_structured = wing_level + (model - model[wing_sel].mean())
        # exact, as a floor of 0 sigma: whether it carries the wing level's
        # error is for the sigma model to settle
        corrected = h.visibility(h_par, h_perp, 75.0, h.AccidentalEstimate(g_structured, 0.0))
        notes.append(f"corrected V = {corrected.v:.3f} +- {corrected.sigma_v:.3f}")

        # the plain constant-floor correction, reported for comparison
        const_corrected = h.visibility(h_par, h_perp, 75.0, g_const)
        notes.append(f"constant-floor correction would give {const_corrected.v:.3f}")

        # The corrected V is a ratio of window sums over +-75 ns, so its
        # model is the ratio of the window integrals (0.9224), not the
        # t_c -> infinity closed form (0.900).
        v_model_75 = 1.0 - (
            quadrature.window(ideal_pair(1.0), -75.0, 75.0)
            / quadrature.window(ideal_pair(0.0), -75.0, 75.0)
        )
        notes.append(f"windowed model V = {v_model_75:.4f}")
        assert 0.93 - 0.06 <= corrected.v <= 0.93 + 0.06
        assert abs(corrected.v - v_model_75) <= 3.0 * corrected.sigma_v


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "event files are byte-identical across runs and worker counts") as notes:
        cfg = h.ExperimentConfig(
            n_triggers=140_000, eta_f=0.5, eta_s=0.5, xi=1.0,
            bg_rate_a=1e-4, bg_rate_b=1e-4, seed=777,
        )
        payloads = []
        for name, workers in (("a", 1), ("b", 1), ("c", 4)):
            frames = h.simulate_frames(cfg, workers=workers)
            path = h.write_events(frames, tmp_path / f"{name}.csv")
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1] == payloads[2]
        notes.append(f"{len(payloads[0])} bytes, workers 1 and 4")


def test_criterion_8_property_suites():
    with criterion(8, "normalization, conditional law, analyzer exactness, flat background") as notes:
        # envelope normalization across three decades of coherence time
        for tau in (0.1, 1.0, 13.61, 26.18, 150.0, 1000.0):
            assert abs(quadrature.norm(h.Envelope(tau)) - 1.0) < 1e-6
        notes.append("norms 1 +- 1e-6 over tau in [0.1, 1000]")

        # conditional outcome probabilities over 1e5 random draws
        rng = np.random.default_rng(808)
        total_checked = 0
        for xi in rng.random(10):
            pair = h.SourcePair(h.Envelope(TAU_F), h.Envelope(TAU_S), float(xi))
            t1 = pair.env_f.t0 + rng.exponential(TAU_F, 10_000)
            t2 = pair.env_s.t0 + rng.exponential(TAU_S, 10_000)
            p_c, p_a, p_b = conditional_outcome_probs(pair, t1, t2)
            total = p_c + p_a + p_b
            assert np.all(np.abs(total - 1.0) < 1e-12)
            for arr in (p_c, p_a, p_b):
                assert np.all((arr >= 0.0) & (arr <= 1.0))
            total_checked += t1.size
        notes.append(f"outcome law sums to 1 over {total_checked} draws")

        # analyzer exactness on a hand-built stream
        tick = lambda t_ns: int(round(t_ns * 8))
        stream = stream_from_records(
            [
                ("T", 0),
                ("A", tick(10)),
                ("B", tick(22)),
                ("T", 8000),
                ("B", 8000 + tick(84)),
                ("T", 16000),
                ("A", 16000 + tick(86)),
                ("B", 16000 + tick(90)),
                ("T", 24000),
                ("A", 24000 + tick(3)),
                ("A", 24000 + tick(5)),
                ("B", 24000 + tick(100)),
            ]
        )
        pairing = h.pair_events(stream)
        assert pairing.n_triggers == 4
        assert pairing.valid.tolist() == [True, True, False, True]
        assert pairing.delta_ts.tolist() == [-12.0, -97.0]
        notes.append("hand-built stream paired exactly")

        # background-only difference spectrum is flat
        cfg = h.ExperimentConfig(
            n_triggers=2_000_000, eta_f=0.0, eta_s=0.0,
            bg_rate_a=2e-4, bg_rate_b=2e-4, seed=88,
        )
        pairing = h.pair_events(h.simulate(cfg))
        hist = h.histogram(pairing.delta_ts, pairing.n_triggers)
        counts = hist.counts
        assert counts.sum() > 1000
        stat, p_value = chisquare(counts)
        notes.append(f"flatness p = {p_value:.3f} over {counts.size} bins")
        assert p_value > 1e-3
