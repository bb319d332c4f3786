"""Scan the relative emission delay and trace out the interference dip.

For each delay the simulator runs a parallel (interfering) and a
perpendicular (non-interfering) acquisition; the analyzed suppression
ratio is compared with the closed-form dip, which is asymmetric because
the two photons have different coherence times. A plot is written if
matplotlib is available.
"""

import numpy as np

from homsim import ExperimentConfig, dip_curve, dip_ratio, simulate_histograms

TAU_S, TAU_F = 26.18, 13.61
DELAYS = np.arange(-40.0, 41.0, 10.0)
N = 60_000

# Per delay, a parallel (xi = 1) and a perpendicular (xi = 0) run,
# histogrammed chunk by chunk without building their event streams.
configs = [
    ExperimentConfig(
        n_triggers=N, eta_f=1.0, eta_s=1.0, xi=xi,
        delta_t=float(delay), seed=seed,
    )
    for k, delay in enumerate(DELAYS)
    for xi, seed in ((1.0, 900 + 2 * k), (0.0, 901 + 2 * k))
]
hists = simulate_histograms(configs, 85.0, 10.0, 255.0)
runs = list(zip(DELAYS.tolist(), hists[0::2], hists[1::2]))

points = dip_curve(runs, t_c=245.0)  # a wide +-245 ns window captures the full overlap

print("delay_ns   simulated ratio   closed form")
for point in points:
    model = dip_ratio(point.delta_t, TAU_S, TAU_F)
    print(f"{point.delta_t:8.0f}   {point.ratio:7.4f} +- {point.sigma:.4f}"
          f"   {model:10.4f}")

print("\nThe dip recovers faster on the negative-delay side (set by the")
print("shorter heralded-photon coherence time) than on the positive side")
print("(set by the single-atom lifetime).")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not available; skipping the plot")
else:
    grid = np.linspace(-60.0, 60.0, 400)
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(grid, dip_ratio(grid, TAU_S, TAU_F), label="closed form")
    ax.errorbar(
        [p.delta_t for p in points],
        [p.ratio for p in points],
        yerr=[p.sigma for p in points],
        fmt="o", capsize=3, label="Monte Carlo",
    )
    ax.set_xlabel("relative emission delay (ns)")
    ax.set_ylabel("coincidence ratio  P_par / P_perp")
    ax.set_ylim(0.0, 1.1)
    ax.legend()
    fig.tight_layout()
    fig.savefig("hom_dip.png", dpi=150)
    print("\nwrote hom_dip.png")
