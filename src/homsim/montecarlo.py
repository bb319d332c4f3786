"""Trigger-by-trigger Monte Carlo of the two-source interference experiment.

Each trigger opens an acquisition window. With the configured
efficiencies, each source contributes at most one photon whose detection
time is drawn from its squared envelope; if both photons are present the
beam-splitter outcome (coincidence or bunching) is drawn from the exact
conditional law, so the generated event statistics match the analytic
coincidence distributions by construction. Uniform Poisson background
events and timestamp quantization complete the detector model. The
chunk kernel turns a mask that mixes True and False at random, such as
the detector routing, into indices once (`np.flatnonzero`) and gathers
at those, and it combines routing labels with boolean algebra rather
than `np.where`, because numpy indexes with such a mask several times
slower than with indices. The two-photon mask is turned into indices
only when it is mixed: when every trigger has both photons (at unit
efficiency) its selector is a slice, so the gathers are views. The
gate's mask, nearly all True at unit efficiency, stays boolean.

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
(seed, chunk_index), and each chunk's stream is sorted by (timestamp,
detector). The output is therefore bit-identical for a given config
regardless of how many workers generate the chunks.

Chunks start and end on trigger boundaries, the gate keeps every click
inside its own trigger's window, and `trigger_period` exceeds
`window_length` by at least one tick, so every click's tick lies below
the next trigger's. The chunk streams, in chunk order, therefore make
up the globally sorted stream without a global sort: `simulate_chunks`
yields them one by one for `write_events`, in memory bounded by a few
chunks, and `simulate` concatenates them. Pairing is chunk-local too:
`simulate_histograms` pairs and bins each chunk on its own, and its
histograms, sums of the chunks' integer counts, equal those of the
whole stream for any number of workers.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Iterator, Sequence

import numpy as np

from .analysis import CoincidenceHistogram, histogram, pair_clicks
from .errors import ConfigError
from .interference import Envelope, SourcePair, _inverse_cdf, _p_coincidence
from .io import DET_A, DET_B, DET_T, EventStream

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
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
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
        # Every click lies inside its trigger's window, so before
        # n_triggers * trigger_period: that many ticks must fit in int64.
        # A period is at least one tick, so the first test covers any
        # n_triggers too large for a float.
        ticks_per_period = self.trigger_period * 1000.0 / self.timestamp_resolution
        if self.n_triggers >= 2**63 or self.n_triggers * ticks_per_period >= 2**63:
            raise ConfigError(
                "the run's ticks, up to n_triggers * trigger_period * 1000 / "
                "timestamp_resolution, must stay below 2**63 (int64)"
            )

    def source_pair(self) -> SourcePair:
        """Analytic counterpart of this config: envelope starts relative to
        the trigger, the later-starting envelope delayed by |delta_t|."""
        env_f = Envelope(self.tau_f, t0=max(self.delta_t, 0.0))
        env_s = Envelope(
            self.tau_s, t0=max(-self.delta_t, 0.0), detuning=self.detuning
        )
        return SourcePair(env_f, env_s, self.xi)


def quantize(t, resolution: float = 125.0):
    """Floor a time in ns onto integer ticks of `resolution` ps.

    Raises ValueError for a negative or non-finite time and for one whose
    tick does not fit in int64.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("cannot quantize negative times")
    ticks = np.floor(t_arr * (1000.0 / resolution))
    if not np.all(ticks < 2.0**63):  # false for nan as well
        what = "non-finite times" if not np.isfinite(t_arr).all() else "times beyond int64 ticks"
        raise ValueError(f"cannot quantize {what}")
    ticks = ticks.astype(np.int64)
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
    t_f = _inverse_cdf(t0_f, pair.env_f.tau, u_f)
    t_s = _inverse_cdf(t0_s, pair.env_s.tau, u_s)

    # Routing: one detector label per photon. A lone photon goes to A on
    # its r_route draw; a pair is routed by the conditional outcome law.
    f_to_a = r_route < 0.5
    s_to_a = f_to_a.copy()
    both = live_f & live_s
    n_both = np.count_nonzero(both)
    if n_both:
        # one selector for the eight gathers and scatters below
        both = slice(None) if n_both == count else np.flatnonzero(both)
        p_c = _p_coincidence(pair, t_f[both], t_s[both], t0_f[both], t0_s[both])
        r_o = r_outcome[both]
        coinc = r_o < p_c
        bunch_to_a = ~coinc & (r_o < p_c + 0.5 * (1.0 - p_c))
        # Coincidence: `swap` sends the photons to opposite detectors;
        # bunching: both photons on the same detector.
        swap = coinc & f_to_a[both]
        f_to_a[both] = swap | bunch_to_a
        s_to_a[both] = (coinc ^ swap) | bunch_to_a

    owners = np.concatenate((np.flatnonzero(live_f), np.flatnonzero(live_s)))
    # views: the owner column is also the index that gathers each photon
    owner_f, owner_s = np.split(owners, [np.count_nonzero(live_f)])
    times = np.concatenate((t_f[owner_f], t_s[owner_s]))
    to_a = np.concatenate((f_to_a[owner_f], s_to_a[owner_s]))

    sides = []
    w = config.window_length
    for mine, rate, offset in (
        (to_a, config.bg_rate_a, config.detector_offset_a),
        (~to_a, config.bg_rate_b, config.detector_offset_b),
    ):
        mine = np.flatnonzero(mine)
        t, own = times[mine], owners[mine]
        if rate > 0.0:
            # Uniform Poisson background over each acquisition window.
            bg_owners = np.repeat(np.arange(count), rng.poisson(rate * w, count))
            t = np.concatenate((t, trig[bg_owners] + rng.random(bg_owners.size) * w))
            own = np.concatenate((own, bg_owners))
        t = t + offset
        # Detector gate: keep clicks inside their own acquisition window;
        # none is negative, as t >= start and no trigger time is.
        start = trig[own]
        keep = (t >= start) & (t < start + w)
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


def _imap(fn, tasks, workers: int, ahead: int) -> Iterator:
    """fn(t) for t in tasks, in order, on `workers` threads when that can
    help; at most `ahead` results are made ahead of the consumer."""
    if workers <= 1 or len(tasks) <= 1:
        yield from map(fn, tasks)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque(pool.submit(fn, t) for t in tasks[:ahead])
        for task in tasks[ahead:]:
            done = pending.popleft().result()
            pending.append(pool.submit(fn, task))
            yield done
        while pending:
            yield pending.popleft().result()


def _chunk_stream(config: ExperimentConfig, span) -> EventStream:
    """One chunk's events sorted by (timestamp, detector), triggers first on ties."""
    trig_ticks, (a_ticks, _), (b_ticks, _) = _simulate_chunk(config, *span)
    det = np.repeat(
        np.array([DET_T, DET_A, DET_B], np.uint8), [trig_ticks.size, a_ticks.size, b_ticks.size]
    )
    ticks = np.concatenate((trig_ticks, a_ticks, b_ticks))
    order = np.lexsort((det, ticks))
    return EventStream(det[order], ticks[order], config.timestamp_resolution)


def simulate_chunks(config: ExperimentConfig, workers: int = 1) -> Iterator[EventStream]:
    """The event stream of `config`, chunk by chunk in chunk order; their
    concatenation is ``simulate(config)``. Nothing is generated before
    the first chunk is asked for, and at most `workers` chunks ahead of
    the one asked for."""
    yield from _imap(partial(_chunk_stream, config), _spans(config), workers, workers)


def simulate(config: ExperimentConfig, workers: int = 1) -> EventStream:
    """Generate the detection-event stream for `config`.

    Args:
        config: validated experiment description.
        workers: number of threads generating chunks; the output stream is
            identical for any value.

    Returns:
        EventStream sorted by (timestamp, detector), triggers first on ties.
    """
    return EventStream.concatenate(list(simulate_chunks(config, workers)))


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
    # the counts are small: every chunk is queued at once, so no thread
    # waits on a longer chunk ahead of it
    for (k, _), counts in zip(tasks, _imap(chunk_counts, tasks, workers, len(tasks))):
        totals[k] = totals[k] + counts
    return [
        replace(empty, counts=total, n_triggers=config.n_triggers)
        for config, total in zip(configs, totals)
    ]
