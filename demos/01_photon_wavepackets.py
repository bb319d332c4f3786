"""Single-photon wavepackets: shape, sampling, and normalization.

Both sources emit photons with a decaying-exponential temporal envelope;
the two differ only in their coherence time (26.18 ns for the single-atom
photon, 13.61 ns for the heralded four-wave-mixing photon). This script
walks through the envelope API.
"""

import numpy as np

from homsim import Envelope, amplitude, sample_emission_time


def intensity_integral(env, upper, n=200_000):
    """Midpoint-rule integral of |psi|^2 from the envelope start to `upper`."""
    step = (upper - env.t0) / n
    t = env.t0 + (np.arange(n) + 0.5) * step
    return float(np.sum(np.abs(amplitude(env, t)) ** 2) * step)


atom = Envelope(tau=26.18)
fwm = Envelope(tau=13.61)

print("== amplitudes ==")
for t in (-1.0, 0.0, 13.61, 26.18, 80.0):
    print(
        f"t = {t:7.2f} ns   atom: {abs(amplitude(atom, t)):.5f}"
        f"   fwm: {abs(amplitude(fwm, t)):.5f}  (ns^-1/2)"
    )

print("\n== normalization ==")
for env in (atom, fwm):
    total = intensity_integral(env, env.t0 + 40.0 * env.tau)
    print(f"tau = {env.tau:6.2f} ns -> integral of |psi|^2 over 40 tau = {total:.9f}")
print(f"truncated at one coherence time: {intensity_integral(atom, atom.tau):.6f}"
      f"  (analytic 1 - 1/e = {1 - np.exp(-1):.6f})")

print("\n== inverse-CDF sampling of detection times ==")
rng = np.random.default_rng(1)
samples = sample_emission_time(atom, rng.random(200_000))
print(f"sample mean {samples.mean():.2f} ns (expected {atom.tau:.2f})")
print(f"sample median {np.median(samples):.2f} ns "
      f"(expected tau ln2 = {atom.tau * np.log(2):.2f})")

print("\n== detuning only rotates the carrier phase ==")
detuned = Envelope(tau=26.18, detuning=76.0)  # MHz, the uncompensated shift
ts = np.linspace(0.0, 50.0, 6)
for t, a0, a1 in zip(ts, amplitude(atom, ts), amplitude(detuned, ts)):
    print(f"t = {t:5.1f} ns   |psi| = {abs(a1):.5f} (undetuned {abs(a0):.5f})"
          f"   phase = {np.angle(a1):+.3f} rad")
