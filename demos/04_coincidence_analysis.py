"""The full coincidence-analysis pipeline, raw and corrected.

Reproduces the headline measurement: with background at a level that
drags the raw +-25 ns visibility down to about 62%, the accidental
correction recovers a value compatible with the 90% expectation. Also
demonstrates why a constant wing-estimated floor is not enough when the
accidentals are dominated by photon-background pairs: their difference
spectrum is a pedestal with the same shape as the non-interfering
coincidence distribution.
"""

from dataclasses import replace

import numpy as np

from homsim import (
    AccidentalEstimate,
    ExperimentConfig,
    estimate_accidentals,
    expected_histogram,
    histogram,
    pair_events,
    simulate,
    visibility,
    visibility_closed_form,
)

ETA = 0.05        # scaled-up efficiencies keep the demo fast
# background rate per ns per window: the root, 1.218e-4, of the raw +-25 ns
# visibility at 62% that the acceptance test's criterion 6 bisects on
# expected_histogram at these efficiencies
RATE = 1.22e-4
N = 1_500_000

hists = {}
for xi, seed in ((1.0, 101), (0.0, 102)):
    cfg = ExperimentConfig(
        n_triggers=N, eta_f=ETA, eta_s=ETA, xi=xi,
        bg_rate_a=RATE, bg_rate_b=RATE, seed=seed,
    )
    pairing = pair_events(simulate(cfg))
    hists[xi] = histogram(pairing.delta_ts, pairing.n_triggers)
    print(f"xi = {xi:3.1f}: {pairing.delta_ts.size} coincidence pairs "
          f"from {pairing.n_triggers} triggers")

h_par, h_perp = hists[1.0], hists[0.0]

print("\n== raw visibility, +-25 ns window ==")
raw = visibility(h_par, h_perp, 25.0)
print(f"V_raw = {raw.v:.3f} +- {raw.sigma_v:.3f}")

print("\n== accidental floor ==")
wing = estimate_accidentals(h_par, h_perp)  # mean of the two wing levels
print(f"wing estimate (|dt| in [100, 200] ns): {wing.g_acc:.3e} +- {wing.sigma:.1e} "
      "per bin per trigger")

# the background part of the exact expected histogram, at xi = 0: the
# histogram less its zero-background self
cfg = ExperimentConfig(
    n_triggers=N, eta_f=ETA, eta_s=ETA, xi=0.0, bg_rate_a=RATE, bg_rate_b=RATE
)
model = expected_histogram(cfg) - expected_histogram(replace(cfg, bg_rate_a=0.0, bg_rate_b=0.0))
center = model[np.abs(h_par.bin_centers) <= 5.0][0]
wing_model = model[np.abs(h_par.bin_centers) >= 100.0].mean()
print(f"analytic floor: center {center:.3e}, wings {wing_model:.3e} "
      f"(pedestal ratio {center / wing_model:.2f})")

print("\n== corrected visibility, +-75 ns window ==")
flat_corrected = visibility(h_par, h_perp, 75.0, wing)
print(f"constant floor:  V = {flat_corrected.v:.3f} +- {flat_corrected.sigma_v:.3f}"
      "   (undercorrects the pedestal)")

# data-pinned level, with its error, and model shape
structured = AccidentalEstimate(wing.g_acc + (model - wing_model), wing.sigma)
corrected = visibility(h_par, h_perp, 75.0, structured)
print(f"structured floor: V = {corrected.v:.3f} +- {corrected.sigma_v:.3f}")
print(f"expected from coherence times: {visibility_closed_form(26.18, 13.61):.3f}")
print("(a +-75 ns window clips some of the interfering tail, so the")
print(" corrected value sits a little above the full-integral expectation)")
