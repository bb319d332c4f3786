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


def amplitude(env: Envelope, t):
    """Complex amplitude psi(t) in ns^-1/2 (0 for t < t0). Accepts arrays."""
    rel = np.asarray(t, dtype=float) - env.t0
    out = np.zeros(rel.shape, dtype=complex)
    mask = rel >= 0.0
    r = rel[mask]
    vals = math.sqrt(1.0 / env.tau) * np.exp(-r / (2.0 * env.tau))
    if env.detuning != 0.0:
        vals = vals * np.exp(-2j * np.pi * env.detuning * _MHZ_NS * r)
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


def _inverse_cdf(t0, tau: float, u):
    """Emission time t0 - tau*ln(1 - u) for uniform u in [0, 1), unchecked."""
    return t0 - tau * np.log1p(-u)


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
