"""Analytic model: single-photon envelopes and two-photon beam-splitter statistics.

Each photon has a decaying-exponential temporal envelope (times in ns,
carrier detunings in MHz entering only as a phase of the complex
amplitude). A pair of them, one per input port of a 50:50 beam
splitter, has closed forms for the interfering and non-interfering
coincidence distributions, their integrals, the visibility, the dip
shape and the outcome law of one trial given both detection times, at
any pair of carrier detunings. :func:`expected_histogram` sums that law
into a whole run on the simulator's tick grid, interference and
accidentals included. Each quantity has exactly one implementation
here; the independent quadrature references live with the tests. The
visibility, the dip and the total coincidence probability are forms of
one quantity, the squared overlap of the two envelopes, which only
:func:`_overlap_sq` computes. scipy, from the ``test`` extra, is
imported only by :func:`coincidence_probability_numeric`, which
``homsim`` does not export: loading it takes most of the time of
``import homsim``.

Delay convention: a delay is the envelopes' start times, ``env_f.t0 -
env_s.t0``; a positive one means the heralded (f) photon's envelope
starts after the single-atom (s) photon's. The dip-shape branches below
are only consistent with this orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .analysis import _BIN_WIDTH, _HALF_RANGE, _VALID_WINDOW, _bin, histogram
from .io import _ns_to_ticks, _tick_ns, _whole_ticks

if TYPE_CHECKING:
    from .montecarlo import ExperimentConfig

# 1 MHz * 1 ns = 1e-3 cycles
_MHZ_NS = 1e-3
# The closed range (lo, hi, " unit") of each kind of model and run parameter
_BOUNDS = {
    "probability": (0.0, 1.0, ""),
    # 1/tau, a b / (a + b) for two rates, tau_s tau_f and (tau_s + tau_f)**2
    # stay finite and non-zero.
    "tau": (1e-150, 1e150, " ns"),
    # With the tau range, _overlap_sq's 2 d_omega tau_s tau_f / (tau_s + tau_f)
    # is at most 2 * 4 pi * 1e3 rad/ns * 5e149 ns = 1.3e154, whose square is
    # below the float maximum, 1.8e308. coincidence_density forms its cross
    # term, at most exp(-(a + b) |dt| / 2), only where it does not underflow,
    # |dt| < 1492 / (a + b) <= 7.5e152 ns, so its exponent and its phase
    # d_omega dt, below 1e157, stay finite; further out the term is 0 and the
    # direct terms' exponents, sums of terms <= 0, are at worst -inf.
    "detuning": (-1e6, 1e6, " MHz"),
    # Delays t_f - t_s. The generator's two detection times then lie within
    # |delta_t| + 37 tau of each other (its -ln(1 - u) is below 37), at most
    # 3.8e151 ns, so the outcome law's phase d_omega dt stays below 4.8e155
    # rad and _overlap_sq's gap / tau below 1e300, where a delay of 1e305 ns
    # at the detuning bound overflows the phase.
    "delay": (-1e150, 1e150, " ns"),
    # The delay's bound: the jitter shifts the single-atom start time as a
    # delay does, by sigma times a standard normal that numpy keeps below 14.
    "jitter": (0.0, 1e150, " ns"),
    "rate": (0.0, math.inf, " /ns"),
    "offset": (0.0, math.inf, " ns"),
}


def _check_bound(name: str, value: float, kind: str, error: type[Exception] = ValueError):
    """Raise `error` naming `name` unless `value` lies in `_BOUNDS[kind]`."""
    lo, hi, unit = _BOUNDS[kind]
    if not lo <= value <= hi:
        raise error(f"{name} must lie in [{lo:g}, {hi:g}]{unit}, got {value}")


@dataclass(frozen=True)
class Envelope:
    """Decaying-exponential temporal amplitude of a single photon.

    Attributes:
        tau: coherence (decay) time in ns, in [1e-150, 1e150] (`_BOUNDS`).
        t0: emission start time in ns; the amplitude vanishes for t < t0.
        detuning: carrier frequency offset in MHz (0 = compensated carrier),
            in [-1e6, 1e6] (`_BOUNDS`).
    """

    tau: float
    t0: float = 0.0
    detuning: float = 0.0

    def __post_init__(self):
        _check_bound("tau", self.tau, "tau")
        _check_bound("detuning", self.detuning, "detuning")


def amplitude(env: Envelope, t):
    """Complex amplitude psi(t) in ns^-1/2 (0 for t < t0). Accepts arrays."""
    rel = np.asarray(t, dtype=float) - env.t0
    out = np.zeros(rel.shape, dtype=complex)
    mask = rel >= 0.0
    r = rel[mask]
    with np.errstate(over="ignore"):  # far out, the exponent passes the float range: 0
        vals = math.sqrt(1.0 / env.tau) * np.exp(-r / (2.0 * env.tau))
    if env.detuning != 0.0:
        # The carrier phase only where the decay leaves a value, as in
        # coincidence_density: there r < 1490 tau, and the phase is finite.
        live = vals > 0.0
        vals = vals.astype(complex)
        vals[live] *= np.exp(-2j * np.pi * env.detuning * _MHZ_NS * r[live])
    out[mask] = vals
    if np.ndim(t) == 0:
        return complex(out)
    return out


def sample_emission_time(env: Envelope, u):
    """Map uniform u in [0, 1) to an emission time by inverting the |psi|^2 CDF.

    The squared envelope is an exponential density, so the inverse CDF is
    t0 - tau*ln(1 - u). Accepts scalars or arrays.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr < 0.0) or np.any(u_arr >= 1.0):
        raise ValueError("u must lie in [0, 1)")
    t = _inverse_cdf(env.t0, env.tau, u_arr)
    if np.ndim(u) == 0:
        return float(t)
    return t


def _inverse_cdf(t0, tau: float, u, out=None):
    """Emission time t0 - tau*ln(1 - u) for uniform u in [0, 1), unchecked.

    1 - u is exact for the uniforms numpy draws (multiples of 2**-53), and
    np.log of it is several times faster than np.log1p(-u). The steps work
    in place on `out`, which may be `u` itself, or on one new array (0-d
    for a scalar u).
    """
    t = np.subtract(1.0, u, out=np.empty(np.shape(u)) if out is None else out)
    np.log(t, out=t)
    t *= -tau
    t += t0
    return t


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
        _check_bound("xi", self.xi, "probability")


def _d_omega(env_f: Envelope, env_s: Envelope) -> float:
    """Relative carrier angular frequency in rad/ns."""
    return 2.0 * np.pi * (env_f.detuning - env_s.detuning) * _MHZ_NS


def _p_coincidence(pair: SourcePair, t1, t2, t0_f, t0_s):
    """Coincidence probability of one two-photon trial, given its detection times.

    t1 is the heralded photon's time and t2 the single-atom photon's; the
    envelopes start at t0_f and t0_s (scalars or per-sample arrays) and
    take their coherence times and carrier detunings from `pair`. Exact
    wherever a = psi_f(t1) psi_s(t2) or b = psi_f(t2) psi_s(t1) is
    supported; the generator draws t1 >= t0_f and t2 >= t0_s, so a always is.
    At xi = 0 the law is 1/2 for any finite times, and no term of it is
    computed: the cross term below, a finite number or a signed zero,
    times -xi**2 = -0 is a signed zero.
    """
    if pair.xi == 0.0:
        return np.full(np.broadcast_shapes(np.shape(t1), np.shape(t2)), 0.5)
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    # b is supported where both times are at or after both starts
    t0 = np.maximum(t0_f, t0_s)
    support = (t1 >= t0) & (t2 >= t0)
    # With both supported, |b|^2 / |a|^2 = exp(kappa dt) and a b* has the
    # phase d_omega dt, so xi^2 Re(a b*) / (|a|^2 + |b|^2) is
    # xi^2 cos(d_omega dt) / (2 cosh(kappa dt / 2)). 1 / (2 cosh x) is
    # written as e^-|x| / (1 + e^-2|x|), which stays finite where cosh x
    # overflows. The steps work in place on two arrays (0-d for scalar
    # times), dt and e, and a third where the carriers differ: the
    # cosine, the costliest step, is skipped where it is 1, and dt then
    # takes 1 + e^2.
    dt = np.subtract(t1, t2, out=np.empty(np.broadcast_shapes(t1.shape, t2.shape)))
    kappa = 1.0 / pair.env_f.tau - 1.0 / pair.env_s.tau
    e = np.abs(dt, out=np.empty_like(dt))
    e *= -0.5 * abs(kappa)
    np.exp(e, out=e)
    d_omega = _d_omega(pair.env_f, pair.env_s)
    if d_omega:
        dt *= d_omega
        np.cos(dt, out=dt)
    den = np.square(e, out=np.empty_like(e) if d_omega else dt)
    den += 1.0
    cross = np.divide(e, den, out=e)
    if d_omega:
        cross *= dt
    # cross is finite, so the product with the support mask is cross or a
    # signed zero: np.where would branch on a mask that is random when the
    # envelopes start apart
    cross *= support
    cross *= -(pair.xi**2)
    cross += 0.5
    return cross


def coincidence_density(pair: SourcePair, dt: float) -> float:
    """Coincidence probability density (per ns) at signed difference dt = t_a - t_b.

    Closed form for exponential envelopes, which holds at any pair of
    carrier detunings: a relative detuning d_omega scales the
    interference term by cos(d_omega dt).
    """
    # Each piece is the exact integral of an exponential. The carrier phases
    # of a1 = psi_f(t) psi_s(t+dt) and a2 = psi_f(t+dt) psi_s(t) leave
    # a1 a2* with the phase (omega_f - omega_s) dt, which does not depend on
    # t, so a relative detuning only scales the cross term by cos(d_omega dt)
    # and the direct terms not at all. The direct term of |a1|^2 integrates
    # from lo, where both of its factors have started, and that of |a2|^2 is
    # the same at -dt; both are written out, as a nested function would cost
    # more than their arithmetic.
    dt = float(dt)  # a float overflows to inf where a numpy scalar also warns
    env_f, env_s = pair.env_f, pair.env_s
    a = 1.0 / env_f.tau
    b = 1.0 / env_s.tau
    tf, ts = env_f.t0, env_s.t0
    pref = a * b / (a + b)
    lo = max(tf, ts - dt)
    direct = pref * math.exp(-a * (lo - tf) - b * (lo + dt - ts))
    lo = max(tf, ts + dt)
    direct += pref * math.exp(-a * (lo - tf) - b * (lo - dt - ts))
    cross = 0.0
    if abs(dt) < 1492.0 / (a + b):  # else it underflows to 0 (_BOUNDS)
        cross_lo = max(tf, ts) + max(0.0, -dt)
        cross = pref * math.exp(
            -0.5 * (a + b) * dt - a * (cross_lo - tf) - b * (cross_lo - ts)
        )
        cross *= math.cos(_d_omega(env_f, env_s) * dt)
    return 0.25 * (direct - 2.0 * pair.xi * pair.xi * cross)


def _overlap_sq(env_f: Envelope, env_s: Envelope, gap):
    """|integral of psi_f psi_s*|^2 of the two envelopes' coherence times
    and detunings, with starts `gap` = t0_f - t0_s ns apart (a scalar or
    an array): 4 tau_s tau_f / (tau_s + tau_f)^2, times the decay of the
    earlier-starting envelope, over a Lorentzian in the relative detuning.
    """
    tau_f, tau_s = env_f.tau, env_s.tau
    gap = np.asarray(gap, dtype=float)
    # The earlier-starting envelope has decayed by the time the later one
    # turns on, with its own time constant.
    decay = np.exp(np.where(gap >= 0.0, -gap / tau_s, gap / tau_f))
    detuned = 2.0 * _d_omega(env_f, env_s) * tau_s * tau_f / (tau_s + tau_f)
    return 4.0 * tau_s * tau_f / (tau_s + tau_f) ** 2 * decay / (1.0 + detuned**2)


def coincidence_probability(pair: SourcePair) -> float:
    """Total A-B coincidence probability, integrated over all dt.

    Equals 1/2 exactly at xi=0 and
    (tau_s - tau_f)^2 / (2 (tau_s + tau_f)^2) at xi=1, zero detuning
    with synchronized starts.
    """
    gap = pair.env_f.t0 - pair.env_s.t0
    return float(0.5 * (1.0 - pair.xi**2 * _overlap_sq(pair.env_f, pair.env_s, gap)))


def coincidence_probability_numeric(pair: SourcePair) -> float:
    """Coincidence probability by integrating :func:`coincidence_density`
    over dt. Slower than :func:`coincidence_probability`; kept as a
    cross-check of its closed form. Needs scipy, from the ``test`` extra."""
    from scipy.integrate import quad

    span = 40.0 * max(pair.env_f.tau, pair.env_s.tau)
    gap = pair.env_f.t0 - pair.env_s.t0

    def g(dt):
        return coincidence_density(pair, dt)

    # Split at the kink locations of the density.
    knots = sorted({-span, -abs(gap), 0.0, abs(gap), span})
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        val, _ = quad(g, lo, hi, limit=400, epsabs=1e-9)
        total += val
    return total


def visibility_closed_form(tau_s: float, tau_f: float) -> float:
    """Expected interference visibility 4 tau_s tau_f / (tau_s + tau_f)^2:
    the overlap of synchronized, compensated envelopes."""
    return float(_overlap_sq(Envelope(tau_f), Envelope(tau_s), 0.0))


def dip_ratio(delta_t, tau_s: float, tau_f: float):
    """Coincidence suppression ratio P_par/P_perp as a function of delay:
    1 less the overlap of compensated envelopes that start `delta_t` apart.

    `delta_t` is the start-time offset t_f - t_s in ns (scalar or array);
    positive values decay with tau_s, negative ones with tau_f, which makes
    the dip slightly asymmetric when the coherence times differ. Raises
    ValueError for a delay outside the delay's bound (`_BOUNDS`).
    """
    delta_t = np.asarray(delta_t, dtype=float)
    for end in (delta_t.min(initial=0.0), delta_t.max(initial=0.0)):  # 0 if empty
        _check_bound("delta_t", float(end), "delay")
    out = 1.0 - _overlap_sq(Envelope(tau_f), Envelope(tau_s), delta_t)
    if delta_t.ndim == 0:
        return float(out)
    return out


def expected_histogram(
    config: ExperimentConfig,
    valid_window: float = _VALID_WINDOW,
    bin_width: float = _BIN_WIDTH,
    half_range: float = _HALF_RANGE,
) -> np.ndarray:
    """Expected per-trigger value of each bin of the coincidence histogram.

    The bins are those of ``histogram(pair_events(simulate(config),
    valid_window).delta_ts, n, bin_width, half_range)``, and the model is
    exact on the simulator's tick grid: signal and accidentals to all
    orders in efficiency and background, with the gate, the detector
    offsets, the first click of each detector and the validity window.
    Excitation jitter is not modelled: it raises NotImplementedError.

    Each detector's first click is the earliest of its photons and its
    background, so the histogram is the mixed difference over both ticks
    of the chance that neither detector clicks before its tick: over the
    sources' states and the outcome law, a sum of six terms separable in
    the two ticks. With f and s the photons' densities, g = psi_f psi_s*
    and F, S and G their tails, a pair puts a photon on A at x and one on
    B at y with the density f(x) s(y) / 4 + s(x) f(y) / 4 - xi^2
    Re[g(x) g*(y)] / 2, and both on one detector at or after u with the
    chance (F(u) S(u) + xi^2 |G(u)|^2) / 4.
    """
    if config.excitation_jitter_sigma > 0.0:
        raise NotImplementedError("expected_histogram does not model excitation jitter")
    res, w = config.timestamp_resolution, config.window_length
    valid_ticks = _whole_ticks(valid_window, res, "valid_window")
    edges = histogram([], 1, bin_width, half_range)  # checks the binning
    n_w = _whole_ticks(w, res)  # as the gate
    if n_w == 0:  # a window shorter than a tick keeps no click
        return np.zeros(edges.counts.size)
    last_valid = min(valid_ticks, n_w - 1)
    # tick edges, as offsets from the trigger: j ticks over the ticks in a ns
    lo = np.arange(n_w + 1) / _ns_to_ticks(1.0, res)

    pair = config.source_pair()
    env_f, env_s = pair.env_f, pair.env_s
    eta_f, eta_s, xi2 = config.eta_f, config.eta_s, config.xi**2
    # G(u) = g(max(u, t_m)) / k, with t_m the later start
    k = 0.5 / env_f.tau + 0.5 / env_s.tau + 1j * _d_omega(env_f, env_s)
    sides = []
    for rate, offset in (
        (config.bg_rate_a, config.detector_offset_a),
        (config.bg_rate_b, config.detector_offset_b),
    ):
        u = lo - offset  # the edge of tick j = 0 .. n_w, as a time at the source
        # P(no background click before tick j): independent Poisson counts,
        # each the rate times the part of the window the offset maps on a tick
        bg = np.exp(-rate * np.clip(u, 0.0, w))
        # P(the photon makes no click before tick j); one the gate drops makes none
        f, s = (np.exp(-np.clip(u - env.t0, 0.0, None) / env.tau) for env in (env_f, env_s))
        t = np.maximum(u, max(env_f.t0, env_s.t0))
        g = amplitude(env_f, t) * np.conj(amplitude(env_s, t)) / k
        # the first click at each tick, given each tail and the background; a
        # sum of tails is differenced term by term, so that a flat one cannot
        # round away the steps of another
        survival = bg * np.array([np.ones_like(bg), f, s, f * s, np.abs(g) ** 2, g.real, g.imag])
        none, f, s, fs, gg, g_re, g_im = survival[:, :-1] - survival[:, 1:]
        # the states that put photons on this detector alone
        one = 0.5 * (eta_f * (1.0 - eta_s) * f + (1.0 - eta_f) * eta_s * s)
        sides.append((none, f, s, g_re, g_im, one + 0.25 * eta_f * eta_s * (fs + xi2 * gg)))
    (none_a, f_a, s_a, re_a, im_a, one_a), (none_b, f_b, s_b, re_b, im_b, one_b) = sides
    terms = [  # (coefficient, A's first clicks, B's first clicks)
        (1.0, (1.0 - eta_f) * (1.0 - eta_s) * none_a + one_a, none_b),  # no photon on B
        (1.0, none_a, one_b),  # no photon on A
        (0.25 * eta_f * eta_s, f_a, s_b),  # one photon each way round
        (0.25 * eta_f * eta_s, s_a, f_b),
        (-0.5 * xi2 * eta_f * eta_s, re_a, re_b),  # and the interference of the two ways
        (-0.5 * xi2 * eta_f * eta_s, im_a, im_b),
    ]
    valid = np.arange(n_w) <= last_valid  # the ticks inside the validity window
    corr = np.zeros(2 * n_w - 1)
    for coef, a, b in terms:
        if coef == 0.0:  # it adds nothing, at the cost of two convolutions
            continue
        # pairs with a - b = index - (n_w - 1) and a click inside the
        # validity window: A's, or B's with A's after it
        corr += coef * np.convolve(a * valid, b[::-1])
        corr += coef * np.convolve(a * ~valid, (b * valid)[::-1])
    d = np.arange(1 - n_w, n_w) * _tick_ns(res)
    return _bin(d, edges.counts.size, bin_width, half_range, corr)
