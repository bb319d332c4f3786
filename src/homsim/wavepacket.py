"""Single-photon temporal wavepackets with a decaying-exponential envelope.

Times are in nanoseconds throughout; carrier detunings are in MHz and enter
only as a phase factor on the complex amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# 1 MHz * 1 ns = 1e-3 cycles
_MHZ_NS = 1e-3


@dataclass(frozen=True)
class Envelope:
    """Decaying-exponential temporal amplitude of a single photon.

    Attributes:
        tau: coherence (decay) time in ns, must be > 0.
        t0: emission start time in ns; the amplitude vanishes for t < t0.
        detuning: carrier frequency offset in MHz (0 = compensated carrier).
    """

    tau: float
    t0: float = 0.0
    detuning: float = 0.0

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")

    def shifted(self, delay: float) -> "Envelope":
        """Return the same envelope starting `delay` ns later."""
        return replace(self, t0=self.t0 + delay)


def amplitude_with_starts(tau, detuning, t, t0):
    """Vectorized envelope amplitude for per-sample start times.

    Used by both :func:`amplitude` and the Monte Carlo generator so the
    waveform is defined in exactly one place.
    """
    rel = np.asarray(t, dtype=float) - np.asarray(t0, dtype=float)
    shape = rel.shape
    rel = np.atleast_1d(rel)
    out = np.zeros(rel.shape, dtype=complex)
    mask = rel >= 0.0
    r = rel[mask]
    vals = math.sqrt(1.0 / tau) * np.exp(-r / (2.0 * tau))
    if detuning != 0.0:
        vals = vals * np.exp(-2j * np.pi * detuning * _MHZ_NS * r)
    out[mask] = vals
    return out.reshape(shape)


def amplitude(env: Envelope, t):
    """Complex amplitude psi(t) in ns^-1/2 (0 for t < t0). Accepts arrays."""
    out = amplitude_with_starts(env.tau, env.detuning, t, env.t0)
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
    t = env.t0 - env.tau * np.log1p(-u_arr)
    if np.ndim(u) == 0:
        return float(t)
    return t


def norm(env: Envelope, upper: float | None = None) -> float:
    """Numerically integrate |psi|^2 from t0 to `upper` (default t0 + 40 tau).

    The 40-tau cutoff leaves a truncation error of e^-40, far below the
    1e-9 quadrature tolerance.
    """
    from scipy.integrate import quad  # deferred, as in interference

    if upper is None:
        upper = env.t0 + 40.0 * env.tau

    def integrand(t):
        return abs(amplitude(env, t)) ** 2

    val, _ = quad(integrand, env.t0, upper, epsabs=1e-9, limit=200)
    return val
