"""Trigger-by-trigger Monte Carlo of the interference experiment.

Generates a run frame by frame: per frame, its triggers and their click
list, each click its detector (A or B), its owner trigger and its offset
in ticks from that trigger. Shows the event-file format, and checks the
simulated coincidence statistics against the analytic model.
"""

import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from homsim import (
    ExperimentConfig,
    coincidence_probability,
    pair_events,
    read_events,
    simulate,
    simulate_frames,
    write_events,
)
from homsim.io import DETECTOR_LABELS

config = ExperimentConfig(
    n_triggers=200_000,
    eta_f=1.0,          # unit efficiencies for a quick, clean comparison
    eta_s=1.0,
    xi=1.0,             # parallel polarizations: interference on
    seed=7,
)


def same_frames(a, b):
    """Whether two runs' frames hold the same triggers and click arrays."""
    return len(a) == len(b) and all(
        x[:3] == y[:3] and all(np.array_equal(p, q) for p, q in zip(x.clicks, y.clicks))
        for x, y in zip(a, b))


frames = simulate(config)
n_clicks = sum(f.clicks[2].size for f in frames)
print(f"simulated {config.n_triggers} triggers -> {len(frames)} frames, {n_clicks} clicks")
offsets, owners, codes = frames[0].clicks
print("first clicks of frame 0 (detector, owner trigger, offset in 125 ps ticks):")
for code, owner, offset in zip(codes[:8], owners[:8], offsets[:8]):
    print(f"   {DETECTOR_LABELS[code]},{owner},{offset}")

print("\n== coincidence fraction vs analytic probability ==")
for xi in (1.0, 0.0):
    cfg = ExperimentConfig(n_triggers=200_000, eta_f=1.0, eta_s=1.0, xi=xi, seed=7)
    pairing = pair_events(simulate(cfg))
    # triggers with a click on both outputs, whether or not near the trigger
    measured = np.mean((pairing.first_a >= 0) & (pairing.first_b >= 0))
    analytic = coincidence_probability(cfg.source_pair())
    print(f"xi = {xi:3.1f}: simulated {measured:.4f}   analytic {analytic:.4f}")

print("\n== determinism ==")
same = same_frames(frames, simulate(config, workers=4))
print(f"same seed, 4 workers -> identical frames: {same}")

print("\n== event file round trip ==")
with tempfile.TemporaryDirectory() as tmp:
    # the file holds the generator's click lists, chunk by chunk
    path = write_events(
        simulate_frames(config), Path(tmp) / "events.csv",
        metadata={"config": asdict(config)},
    )
    print(f"wrote {path.stat().st_size} bytes + JSON sidecar")
    back = read_events(path)
    print(f"read back {len(back)} frames at {back[0].grid.resolution} ps resolution, "
          f"the simulated frames: {same_frames(back, frames)}")

print("\n== a realistic low-efficiency run ==")
lossy = ExperimentConfig(n_triggers=200_000, seed=8)  # defaults: 0.5% each arm
n_clicks = sum(f.clicks[2].size for f in simulate(lossy))
print(f"0.5% efficiencies: {n_clicks} photon clicks in "
      f"{lossy.n_triggers} triggers "
      f"(expected about {lossy.n_triggers * (lossy.eta_f + lossy.eta_s):.0f})")
