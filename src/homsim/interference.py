"""Analytic two-photon beam-splitter statistics for dissimilar sources.

Everything here treats a pair of single photons, one per input port of a
50:50 beam splitter, each with a decaying-exponential temporal envelope.
The interfering and non-interfering coincidence distributions, their
integrals, the visibility, the dip shape and the outcome law of one trial
given both detection times all have closed forms for this envelope
family, at any pair of carrier detunings; numerical quadrature is kept
as an independent path for cross-validation. scipy
is imported only by the functions that integrate: loading it takes most
of the time of ``import homsim``, and no default path needs it.

Delay convention: a positive `delay` argument means the heralded (f)
photon's envelope starts `delay` ns after the single-atom (s) photon's.
The dip-shape branches below are only consistent with this orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnreachableSampleError
from .wavepacket import _MHZ_NS, Envelope, amplitude


@dataclass(frozen=True)
class SourcePair:
    """Two photon envelopes plus a scalar distinguishability.

    Attributes:
        env_f: envelope of the heralded (four-wave-mixing) photon.
        env_s: envelope of the single-atom photon.
        xi: distinguishability in [0, 1]; product of spatial mode overlap
            and polarization projection. xi=1 is the parallel (interfering)
            setting, xi=0 the perpendicular (non-interfering) one.
    """

    env_f: Envelope
    env_s: Envelope
    xi: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError(f"xi must lie in [0, 1], got {self.xi}")

    def delayed(self, delay: float) -> "SourcePair":
        """Pair with the heralded photon delayed by `delay` ns (may be < 0)."""
        return SourcePair(self.env_f.shifted(delay), self.env_s, self.xi)


def _check_taus(tau_s: float, tau_f: float) -> None:
    if tau_s <= 0.0 or tau_f <= 0.0:
        raise ValueError("coherence times must be positive")


def _d_omega(env_f: Envelope, env_s: Envelope) -> float:
    """Relative carrier angular frequency in rad/ns."""
    return 2.0 * np.pi * (env_f.detuning - env_s.detuning) * _MHZ_NS


def _density_closed(env_f: Envelope, env_s: Envelope, xi: float, dt: float) -> float:
    # Each piece is the exact integral of an exponential. The carrier phases
    # of a1 = psi_f(t) psi_s(t+dt) and a2 = psi_f(t+dt) psi_s(t) leave
    # a1 a2* with the phase (omega_f - omega_s) dt, which does not depend on
    # t, so a relative detuning only scales the cross term by cos(d_omega dt)
    # and the direct terms not at all.
    a = 1.0 / env_f.tau
    b = 1.0 / env_s.tau
    tf, ts = env_f.t0, env_s.t0
    pref = a * b / (a + b)

    def direct(d):
        lo = max(tf, ts - d)
        return pref * math.exp(-a * (lo - tf) - b * (lo + d - ts))

    cross_lo = max(tf, ts) + max(0.0, -dt)
    cross = pref * math.exp(
        -0.5 * (a + b) * dt - a * (cross_lo - tf) - b * (cross_lo - ts)
    )
    cross *= math.cos(_d_omega(env_f, env_s) * dt)
    return 0.25 * (direct(dt) + direct(-dt) - 2.0 * xi * xi * cross)


def _p_coincidence(pair: SourcePair, t1, t2, t0_f, t0_s):
    """Coincidence probability of one two-photon trial, given its detection times.

    t1 is the heralded photon's time and t2 the single-atom photon's; the
    envelopes start at t0_f and t0_s (scalars or per-sample arrays) and
    take their coherence times and carrier detunings from `pair`. Raises
    UnreachableSampleError if any sample has neither pair amplitude,
    a = psi_f(t1) psi_s(t2) or b = psi_f(t2) psi_s(t1), supported.
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    direct = (t1 >= t0_f) & (t2 >= t0_s)
    swapped = (t2 >= t0_f) & (t1 >= t0_s)
    if not np.all(direct | swapped):
        raise UnreachableSampleError("both pair amplitudes vanish; the sample cannot occur")
    # With both supported, |b|^2 / |a|^2 = exp(kappa dt) and a b* has the
    # phase d_omega dt, so xi^2 Re(a b*) / (|a|^2 + |b|^2) is
    # xi^2 cos(d_omega dt) / (2 cosh(kappa dt / 2)). 1 / (2 cosh x) is
    # written as e^-|x| / (1 + e^-2|x|), which stays finite where cosh x overflows.
    dt = t1 - t2
    kappa = 1.0 / pair.env_f.tau - 1.0 / pair.env_s.tau
    e = np.exp(-np.abs(0.5 * kappa * dt))
    cross = np.cos(_d_omega(pair.env_f, pair.env_s) * dt) * e / (1.0 + e * e)
    return 0.5 - pair.xi**2 * np.where(direct & swapped, cross, 0.0)


def _density_quad(env_f: Envelope, env_s: Envelope, xi: float, dt: float) -> float:
    from scipy.integrate import quad

    def integrand(t):
        a1 = amplitude(env_f, t) * amplitude(env_s, t + dt)
        a2 = amplitude(env_f, t + dt) * amplitude(env_s, t)
        return (
            abs(a1) ** 2 + abs(a2) ** 2 - 2.0 * xi * xi * (a1 * a2.conjugate()).real
        )

    starts = [env_f.t0, env_s.t0, env_f.t0 - dt, env_s.t0 - dt]
    lo = min(starts)
    hi = max(env_f.t0, env_s.t0) + abs(dt) + 40.0 * max(env_f.tau, env_s.tau)
    pts = sorted(p for p in set(starts) if lo < p < hi)
    val, _ = quad(integrand, lo, hi, points=pts or None, limit=400, epsabs=1e-10)
    return 0.25 * val


def coincidence_density(pair: SourcePair, dt: float, force_quadrature: bool = False) -> float:
    """Coincidence probability density (per ns) at signed difference dt = t_a - t_b.

    Uses the closed form for exponential envelopes, which holds at any
    pair of carrier detunings: a relative detuning d_omega scales the
    interference term by cos(d_omega dt). `force_quadrature` integrates
    the amplitudes numerically instead, as an independent check; the two
    paths agree to 1e-8.
    """
    if force_quadrature:
        return _density_quad(pair.env_f, pair.env_s, pair.xi, dt)
    return _density_closed(pair.env_f, pair.env_s, pair.xi, dt)


def _overlap_sq(env_f: Envelope, env_s: Envelope) -> float:
    # |integral of psi_f psi_s*|^2; exact for exponential envelopes with a
    # constant relative detuning (Lorentzian-squared factor).
    a = 1.0 / env_f.tau
    b = 1.0 / env_s.tau
    gap = env_f.t0 - env_s.t0
    # The earlier-starting envelope has decayed by the time the later one
    # turns on, with its own time constant.
    decay = math.exp(-b * gap) if gap >= 0.0 else math.exp(a * gap)
    return a * b * decay / (0.25 * (a + b) ** 2 + _d_omega(env_f, env_s) ** 2)


def coincidence_probability(pair: SourcePair, delay: float = 0.0) -> float:
    """Total A-B coincidence probability, integrated over all dt.

    `delay` shifts the heralded photon's start by +delay ns before
    evaluating. Equals 1/2 exactly at xi=0 and
    (tau_s - tau_f)^2 / (2 (tau_s + tau_f)^2) at xi=1, zero delay, zero
    detuning with synchronized starts.
    """
    env_f = pair.env_f.shifted(delay) if delay != 0.0 else pair.env_f
    return 0.5 * (1.0 - pair.xi**2 * _overlap_sq(env_f, pair.env_s))


def coincidence_probability_numeric(
    pair: SourcePair, delay: float = 0.0, force_quadrature: bool = False
) -> float:
    """Independent evaluation of the coincidence probability by integrating
    the density over dt. Slower than :func:`coincidence_probability`; kept
    as a cross-check of the closed forms."""
    from scipy.integrate import quad

    shifted = pair.delayed(delay) if delay != 0.0 else pair
    span = 40.0 * max(pair.env_f.tau, pair.env_s.tau)
    gap = shifted.env_f.t0 - shifted.env_s.t0

    def g(dt):
        return coincidence_density(shifted, dt, force_quadrature=force_quadrature)

    # Split at the kink locations of the density.
    knots = sorted({-span, -abs(gap), 0.0, abs(gap), span})
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        if hi <= lo:
            continue
        val, _ = quad(g, lo, hi, limit=400, epsabs=1e-9)
        total += val
    return total


def visibility_closed_form(tau_s: float, tau_f: float) -> float:
    """Expected interference visibility 4 tau_s tau_f / (tau_s + tau_f)^2."""
    _check_taus(tau_s, tau_f)
    return 4.0 * tau_s * tau_f / (tau_s + tau_f) ** 2


def dip_ratio(delta_t, tau_s: float, tau_f: float):
    """Coincidence suppression ratio P_par/P_perp as a function of delay.

    `delta_t` is the start-time offset t_f - t_s in ns (scalar or array);
    positive values decay with tau_s, negative ones with tau_f, which makes
    the dip slightly asymmetric when the coherence times differ.
    """
    _check_taus(tau_s, tau_f)
    dt = np.asarray(delta_t, dtype=float)
    v = visibility_closed_form(tau_s, tau_f)
    out = 1.0 - v * np.where(dt >= 0.0, np.exp(-dt / tau_s), np.exp(dt / tau_f))
    if np.ndim(delta_t) == 0:
        return float(out)
    return out


def conditional_outcome_probs(pair: SourcePair, t1, t2):
    """Outcome law for one two-photon trial with sampled detection times.

    t1 is drawn from |psi_f|^2 and t2 from |psi_s|^2. Returns the triple
    (p_coincidence, p_bunch_a, p_bunch_b), which sums to 1; the photons
    bunch at either detector with probability (1 - p_coincidence) / 2.
    """
    p_c = _p_coincidence(pair, t1, t2, pair.env_f.t0, pair.env_s.t0)
    p_same = 0.5 * (1.0 - p_c)
    if np.ndim(t1) == 0 and np.ndim(t2) == 0:
        return float(p_c), float(p_same), float(p_same)
    return p_c, p_same, p_same
