"""Trigger-by-trigger Monte Carlo of the interference experiment.

Generates timestamped detection events (trigger T plus beam-splitter
outputs A and B), shows the event-file format, and checks the simulated
coincidence statistics against the analytic model.
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

stream = simulate(config)
print(f"simulated {config.n_triggers} triggers -> {len(stream)} records")
print("first records (detector, timestamp in 125 ps ticks):")
for code, tick in zip(stream.detectors[:8], stream.timestamps[:8]):
    print(f"   {DETECTOR_LABELS[code]},{tick}")

print("\n== coincidence fraction vs analytic probability ==")
for xi in (1.0, 0.0):
    cfg = ExperimentConfig(n_triggers=200_000, eta_f=1.0, eta_s=1.0, xi=xi, seed=7)
    pairing = pair_events(simulate(cfg))
    # triggers with a click on both outputs, whether or not near the trigger
    measured = np.mean((pairing.first_a >= 0) & (pairing.first_b >= 0))
    analytic = coincidence_probability(cfg.source_pair())
    print(f"xi = {xi:3.1f}: simulated {measured:.4f}   analytic {analytic:.4f}")

print("\n== determinism ==")
again = simulate(config, workers=4)
same = np.array_equal(stream.timestamps, again.timestamps) and np.array_equal(
    stream.detectors, again.detectors
)
print(f"same seed, 4 workers -> identical stream: {same}")

print("\n== event file round trip ==")
with tempfile.TemporaryDirectory() as tmp:
    path = write_events(
        stream, Path(tmp) / "events.csv",
        metadata={"config": asdict(config)},
    )
    print(f"wrote {path.stat().st_size} bytes + JSON sidecar")
    back = read_events(path)
    print(f"read back {len(back)} records at {back.resolution} ps resolution")

print("\n== a realistic low-efficiency run ==")
lossy = ExperimentConfig(n_triggers=200_000, seed=8)  # defaults: 0.5% each arm
lossy_stream = simulate(lossy)
n_clicks = int(np.sum(lossy_stream.detectors != 0))
print(f"0.5% efficiencies: {n_clicks} photon clicks in "
      f"{lossy.n_triggers} triggers "
      f"(expected about {lossy.n_triggers * (lossy.eta_f + lossy.eta_s):.0f})")
