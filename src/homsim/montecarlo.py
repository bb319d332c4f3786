"""Trigger-by-trigger Monte Carlo of the two-source interference experiment.

Each trigger opens an acquisition window. With the configured
efficiencies, each source contributes at most one photon whose detection
time is drawn from its squared envelope; if both photons are present the
beam-splitter outcome (coincidence or bunching) is drawn from the exact
conditional law, so the generated event statistics match the analytic
coincidence distributions by construction. Uniform Poisson background
events and timestamp quantization complete the detector model.

Delay convention: positive delta_t starts the heralded (f) envelope
delta_t ns after the single-atom (s) envelope. `ExperimentConfig.source_pair`,
which the generator and `expected_accidental_floor` read, shifts the
later-starting envelope forward, mirroring the delay-line calibration of
a real setup; only the relative offset is physical. Without excitation
jitter every emission therefore begins at or after its trigger. Jitter
moves the single-atom envelope start by a Gaussian offset, and an
emission that then falls before its trigger is removed by the detector
gate like any click outside the acquisition window, uncounted.

Determinism: trials are generated in fixed-size chunks, each seeded from
(seed, chunk_index), and the merged stream is sorted by (timestamp,
detector). The output is therefore bit-identical for a given config
regardless of how many workers generate the chunks.

Chunks start and end on trigger boundaries, the gate keeps every click
inside its own trigger's window, and `trigger_period` exceeds
`window_length` by at least one tick, so every click's tick lies below
the next trigger's. Pairing is therefore chunk-local:
`simulate_histograms` pairs and bins each chunk on its own, and its
histograms, sums of the chunks' integer counts, equal those of the
merged stream for any number of workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from typing import Sequence

import numpy as np

from .analysis import CoincidenceHistogram, histogram, pair_clicks
from .errors import ConfigError
from .interference import SourcePair, _p_coincidence
from .io import DET_A, DET_B, DET_T, EventStream
from .wavepacket import Envelope

_CHUNK = 1 << 16


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulated run.

    Times in ns, rates in events per ns, detunings in MHz, timestamp
    resolution in ps. `delta_t` is the start-time offset t_f - t_s of the
    heralded envelope relative to the single-atom one.
    """

    n_triggers: int
    trigger_period: float = 1000.0
    eta_f: float = 0.005
    eta_s: float = 0.005
    tau_f: float = 13.61
    tau_s: float = 26.18
    delta_t: float = 0.0
    excitation_jitter_sigma: float = 0.0
    detuning: float = 0.0
    xi: float = 1.0
    bg_rate_a: float = 0.0
    bg_rate_b: float = 0.0
    window_length: float = 500.0
    timestamp_resolution: float = 125.0
    seed: int = 0
    detector_offset_a: float = 0.0
    detector_offset_b: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.n_triggers <= 0:
            raise ConfigError("n_triggers must be positive")
        for name in ("eta_f", "eta_s", "xi"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        if self.tau_f <= 0.0 or self.tau_s <= 0.0:
            raise ConfigError("coherence times must be positive")
        if self.bg_rate_a < 0.0 or self.bg_rate_b < 0.0:
            raise ConfigError("background rates must be non-negative")
        if self.excitation_jitter_sigma < 0.0:
            raise ConfigError("excitation_jitter_sigma must be non-negative")
        if self.window_length <= 0.0:
            raise ConfigError("window_length must be positive")
        if self.timestamp_resolution <= 0.0:
            raise ConfigError("timestamp_resolution must be positive")
        # A gap of one tick keeps every click's tick below the next
        # trigger's, so pairing by tick gives each click to the trigger
        # whose window the gate kept it in.
        if self.trigger_period - self.window_length < self.timestamp_resolution / 1000.0:
            raise ConfigError(
                "trigger_period must exceed window_length by at least one "
                "timestamp tick (timestamp_resolution / 1000 ns)"
            )
        if self.detector_offset_a < 0.0 or self.detector_offset_b < 0.0:
            raise ConfigError("detector offsets must be non-negative")

    def source_pair(self) -> SourcePair:
        """Analytic counterpart of this config: envelope starts relative to
        the trigger, the later-starting envelope delayed by |delta_t|."""
        env_f = Envelope(self.tau_f, t0=max(self.delta_t, 0.0))
        env_s = Envelope(
            self.tau_s, t0=max(-self.delta_t, 0.0), detuning=self.detuning
        )
        return SourcePair(env_f, env_s, self.xi)

    def to_dict(self) -> dict:
        return asdict(self)


def quantize(t, resolution: float = 125.0):
    """Floor a time in ns onto integer ticks of `resolution` ps."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("cannot quantize negative times")
    ticks = np.floor(t_arr * (1000.0 / resolution)).astype(np.int64)
    if np.ndim(t) == 0:
        return int(ticks)
    return ticks


def _simulate_chunk(config: ExperimentConfig, first: int, count: int, chunk_idx: int):
    """Triggers `first` .. `first + count - 1` of a run, in ticks.

    Returns (trigger ticks, A clicks, B clicks); the clicks of each
    detector are (ticks, owner), where owner indexes this chunk's
    triggers: the trigger whose acquisition window the gate kept the
    click in.
    """
    rng = np.random.default_rng([config.seed, chunk_idx])
    pair = config.source_pair()
    trig = (first + np.arange(count, dtype=float)) * config.trigger_period

    # Fixed draw order; part of the determinism contract.
    live_f = rng.random(count) < config.eta_f
    live_s = rng.random(count) < config.eta_s
    if config.excitation_jitter_sigma > 0.0:
        jitter = rng.standard_normal(count) * config.excitation_jitter_sigma
    else:
        jitter = 0.0
    u_f = rng.random(count)
    u_s = rng.random(count)
    r_outcome = rng.random(count)
    r_route = rng.random(count)

    t0_f = trig + pair.env_f.t0
    t0_s = trig + pair.env_s.t0 + jitter
    t_f = t0_f - pair.env_f.tau * np.log1p(-u_f)
    t_s = t0_s - pair.env_s.tau * np.log1p(-u_s)

    # Routing: one detector label per photon. A lone photon goes to A on
    # its r_route draw; a pair is routed by the conditional outcome law.
    f_to_a = r_route < 0.5
    s_to_a = f_to_a.copy()
    both = live_f & live_s
    if np.any(both):
        p_c = _p_coincidence(pair, t_f[both], t_s[both], t0_f[both], t0_s[both])
        r_o = r_outcome[both]
        coinc = r_o < p_c
        bunch_to_a = r_o < p_c + 0.5 * (1.0 - p_c)
        # Coincidence: `swap` sends the photons to opposite detectors;
        # bunching: both photons on the same detector.
        swap = f_to_a[both]
        f_to_a[both] = np.where(coinc, swap, bunch_to_a)
        s_to_a[both] = np.where(coinc, ~swap, bunch_to_a)

    idx = np.arange(count)
    times = np.concatenate((t_f[live_f], t_s[live_s]))
    owners = np.concatenate((idx[live_f], idx[live_s]))
    to_a = np.concatenate((f_to_a[live_f], s_to_a[live_s]))

    sides = []
    w = config.window_length
    for mine, rate, offset in (
        (to_a, config.bg_rate_a, config.detector_offset_a),
        (~to_a, config.bg_rate_b, config.detector_offset_b),
    ):
        t, own = times[mine], owners[mine]
        if rate > 0.0:
            # Uniform Poisson background over each acquisition window.
            bg_owners = np.repeat(idx, rng.poisson(rate * w, count))
            t = np.concatenate((t, trig[bg_owners] + rng.random(bg_owners.size) * w))
            own = np.concatenate((own, bg_owners))
        t = t + offset
        # Detector gate: keep clicks inside their own acquisition window.
        start = trig[own]
        keep = (t >= start) & (t < start + w) & (t >= 0.0)
        sides.append((quantize(t[keep], config.timestamp_resolution), own[keep]))

    return quantize(trig, config.timestamp_resolution), sides[0], sides[1]


def expected_accidental_floor(
    config: ExperimentConfig,
    bin_centers,
    bin_width: float = 10.0,
    valid_window: float = 85.0,
) -> np.ndarray:
    """First-order analytic accidental spectrum of the background model.

    Accidental A-B pairs in valid sequences come from two sources:
    background-background pairs, whose rate is gated by the validity
    window, and photon-background pairs, whose difference spectrum follows
    the pooled photon survival function. The latter is NOT flat: it forms
    a pedestal under the coincidence peak roughly twice the wing level,
    with the same two-exponential shape as the non-interfering
    coincidence distribution. Wing-based constant-floor estimates
    therefore undercorrect the central region whenever photon-background
    pairs dominate the accidental budget.

    Everything is evaluated to first order in the per-window click
    probabilities (omitted first-click and multi-photon corrections enter
    at the few-percent level). Returns the expected per-trigger histogram
    value for each bin.
    """
    x = np.asarray(bin_centers, dtype=float)
    r_a, r_b = config.bg_rate_a, config.bg_rate_b
    eta_f, eta_s = config.eta_f, config.eta_s
    pair = config.source_pair()

    def pooled_survival(t):
        s_f, s_s = (
            np.exp(-np.clip(t - env.t0, 0.0, None) / env.tau)
            for env in (pair.env_f, pair.env_s)
        )
        return (eta_f * s_f + eta_s * s_s) / (eta_f + eta_s)

    gate = np.clip(np.minimum(valid_window, config.window_length - np.abs(x)), 0.0, None)
    floor = r_a * r_b * gate
    if eta_f + eta_s > 0.0:
        eta_bar = 0.5 * (eta_f + eta_s)
        v_ph = 1.0 - float(pooled_survival(np.array([valid_window]))[0])
        floor = floor + eta_bar * v_ph * (
            r_b * pooled_survival(x) + r_a * pooled_survival(-x)
        )
    return bin_width * floor


def _spans(config: ExperimentConfig):
    """(first trigger, trigger count, chunk index) of each chunk of a run."""
    n = config.n_triggers
    return [
        (start, min(_CHUNK, n - start), idx)
        for idx, start in enumerate(range(0, n, _CHUNK))
    ]


def _map(fn, tasks, workers: int):
    """[fn(t) for t in tasks], on `workers` threads when that can help."""
    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def simulate(config: ExperimentConfig, workers: int = 1) -> EventStream:
    """Generate the detection-event stream for `config`.

    Args:
        config: validated experiment description.
        workers: number of threads generating chunks; the output stream is
            identical for any value.

    Returns:
        EventStream sorted by (timestamp, detector), triggers first on ties.
    """
    parts = _map(lambda s: _simulate_chunk(config, *s), _spans(config), workers)
    det, ticks = [], []
    for trig_ticks, (a_ticks, _), (b_ticks, _) in parts:
        for code, t in ((DET_T, trig_ticks), (DET_A, a_ticks), (DET_B, b_ticks)):
            det.append(np.full(t.size, code, dtype=np.uint8))
            ticks.append(t)
    det = np.concatenate(det)
    ticks = np.concatenate(ticks)
    order = np.lexsort((det, ticks))
    return EventStream(det[order], ticks[order], config.timestamp_resolution)


def simulate_histograms(
    configs: Sequence[ExperimentConfig],
    valid_window: float,
    bin_width: float,
    half_range: float,
    workers: int = 1,
) -> list[CoincidenceHistogram]:
    """Coincidence histogram of each config's run, without its event stream.

    Each chunk is paired and binned where it is generated, and the integer
    counts are summed, so every histogram equals
    ``histogram(pair_events(simulate(config), valid_window).delta_ts,
    config.n_triggers, bin_width, half_range)`` bit for bit. The chunks
    of all configs share one pool of `workers` threads.
    """
    empty = histogram([], 1, bin_width, half_range)  # checks the binning first

    def chunk_counts(task):
        k, span = task
        config = configs[k]
        trig_ticks, a, b = _simulate_chunk(config, *span)
        pairing = pair_clicks(trig_ticks, a, b, valid_window, config.timestamp_resolution)
        return histogram(pairing.delta_ts, span[1], bin_width, half_range).counts

    tasks = [(k, span) for k, config in enumerate(configs) for span in _spans(config)]
    totals = [0] * len(configs)
    for (k, _), counts in zip(tasks, _map(chunk_counts, tasks, workers)):
        totals[k] = totals[k] + counts
    return [
        replace(empty, counts=total, n_triggers=config.n_triggers)
        for config, total in zip(configs, totals)
    ]
