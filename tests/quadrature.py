"""Quadrature references for the analytic model, independent of its closed forms.

Each function but `window` integrates products of `homsim.amplitude`
numerically with scipy, so a test that compares a closed form with it
checks that form against the envelope definition itself.
"""

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
    """Total coincidence probability: `density` integrated over dt (nested quadrature)."""
    span = 40.0 * max(pair.env_f.tau, pair.env_s.tau)
    gap = pair.env_f.t0 - pair.env_s.t0
    # Split at the kink locations of the density.
    knots = sorted({-span, -abs(gap), 0.0, abs(gap), span})
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        if hi > lo:
            val, _ = quad(lambda dt: density(pair, dt), lo, hi, limit=400, epsabs=1e-9)
            total += val
    return total


def window(pair, lo, hi):
    """Coincidence probability with dt = t_a - t_b in [lo, hi].

    Unlike the functions above, this integrates the library's closed-form
    `coincidence_density`, not the amplitudes; `density` checks that form
    against the amplitudes (tests/test_interference.py).
    """
    val, _ = quad(lambda dt: coincidence_density(pair, dt), lo, hi, limit=200)
    return val
