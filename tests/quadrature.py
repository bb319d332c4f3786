"""Quadrature references for the analytic model, independent of its closed forms.

Each function but `window` integrates products of `homsim.amplitude`
numerically, with scipy's adaptive quadrature or a fixed Gauss-Legendre
rule, so a test that compares a closed form with it checks that form
against the envelope definition itself.
"""

import numpy as np
from scipy.integrate import quad

from homsim import amplitude, coincidence_density


def norm(env, upper=None):
    """Numerically integrate |psi|^2 from t0 to `upper` (default t0 + 40 tau).

    The 40-tau cutoff leaves a truncation error of e^-40, far below the
    1e-9 quadrature tolerance.
    """
    if upper is None:
        upper = env.t0 + 40.0 * env.tau

    def integrand(t):
        return abs(amplitude(env, t)) ** 2

    val, _ = quad(integrand, env.t0, upper, epsabs=1e-9, limit=200)
    return val


def density(pair, dt):
    """Coincidence density at dt = t_a - t_b, integrating the amplitudes over t."""
    env_f, env_s, xi = pair.env_f, pair.env_s, pair.xi

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


def probability(pair):
    """Total coincidence probability: `density` integrated over dt, as one
    Gauss-Legendre product rule over both detection times.

    With x = t and y = t + dt, `density`'s integrand is a function of
    (x, y) whose factors psi(x) and psi(y) are each smooth away from the
    two envelope starts. Both axes run from the earlier start to 40 tau
    past the later one, cut at the starts and then into pieces of at most
    h = 8 / r ns, where r = 1 / tau_min + |omega_f - omega_s| bounds the
    rate |lambda| of every exponential e^(lambda x) among the factors. On
    a piece, the 16-point rule errs on such a factor by at most
    h^33 (16!)^4 / (33 (32!)^3) |lambda|^32 max|f| <= 2.6e-26 h max|f|.
    """
    env_f, env_s, xi = pair.env_f, pair.env_s, pair.xi
    rate = 1.0 / min(env_f.tau, env_s.tau) + 2e-3 * np.pi * abs(env_f.detuning - env_s.detuning)
    starts = sorted({env_f.t0, env_s.t0})
    edges = starts + [starts[-1] + 40.0 * max(env_f.tau, env_s.tau)]
    cuts = np.concatenate([
        np.linspace(lo, hi, int(np.ceil((hi - lo) * rate / 8.0)) + 1)[:-1]
        for lo, hi in zip(edges[:-1], edges[1:])
    ] + [edges[-1:]])
    x, w = np.polynomial.legendre.leggauss(16)
    half = np.diff(cuts)[:, None] / 2.0
    t = (cuts[:-1, None] + half * (x + 1.0)).ravel()
    weights = (half * w).ravel()
    psi_f, psi_s = amplitude(env_f, t), amplitude(env_s, t)
    a1 = psi_f[:, None] * psi_s[None, :]  # psi_f(x) psi_s(y), rows x and columns y
    a2 = a1.T  # psi_f(y) psi_s(x)
    integrand = np.abs(a1) ** 2 + np.abs(a2) ** 2 - 2.0 * xi * xi * (a1 * a2.conj()).real
    return 0.25 * float(weights @ integrand @ weights)


def window(pair, lo, hi):
    """Coincidence probability with dt = t_a - t_b in [lo, hi].

    Unlike the functions above, this integrates the library's closed-form
    `coincidence_density`, not the amplitudes; `density` checks that form
    against the amplitudes (tests/test_interference.py).
    """
    val, _ = quad(lambda dt: coincidence_density(pair, dt), lo, hi, limit=200)
    return val
