"""Trigger-by-trigger Monte Carlo of the two-source interference experiment.

Each trigger opens an acquisition window. With the configured
efficiencies, each source contributes at most one photon whose detection
time is drawn from its squared envelope; if both photons are present the
beam-splitter outcome (coincidence or bunching) is drawn from the exact
conditional law, so the generated event statistics match the analytic
coincidence distributions by construction. Uniform Poisson background
events and timestamp quantization complete the detector model.

The chunk kernel's cost follows the photons, not the triggers: it draws
only for the photons that exist. Per chunk, in this fixed order, which is
part of the determinism contract:

1. each source's live triggers, heralded (f) then single-atom (s): a
   binomial count and a sorted uniform sample of that many triggers
   (every trigger at efficiency 1 and none at 0, with no draw);
2. an emission uniform per f photon, then per s photon;
3. a route uniform per photon, f photons first;
4. an excitation-jitter normal per s photon, if the jitter is on;
5. an outcome uniform per two-photon trigger;
6. for detector A, then B, if its background rate is non-zero: a Poisson
   total for the chunk, then a uniform owner trigger and a uniform offset
   in the window per background click.

No draw count depends on `xi` or on the outcome law, so `xi` changes
which detector a photon reaches but no detection time. A lone photon
goes to A on a route uniform below 1/2. In a pair the heralded photon
does so too, and the single-atom photon goes to the other detector on a
coincidence and to the same one on bunching. The two-photon triggers
are found by marking one source's triggers in a boolean array; where a
source fires on every trigger its selector is a slice, so the gathers
are views. A randomly mixed mask, such as the gate's, is turned into
indices once (`np.flatnonzero`), because numpy indexes with such a mask
several times slower than with indices.

The kernel returns one click list, not a list per detector: per click,
its int64 offset ticks, its uint32 owner (the trigger, as an index into
the chunk) and its uint8 detector code, the event file's types, so the
writer converts none of them. It holds the photons, f then s, then A's
background and then B's. A photon's route becomes its code, so no click
is copied to a detector's own array, and a detector offset is added by
code, only where one is set.

Times are offsets from the trigger. Each click's offset is quantised
alone, so no click's offset depends on how far into the run its trigger
lies; its tick, when a stream is laid out (`homsim.io._stream`), is
its trigger's tick plus its offset tick. The detector gate keeps a click
whose offset tick lies inside the window's whole ticks.

Delay convention: that of `homsim.interference`.
`ExperimentConfig.source_pair` delays the later-starting envelope by
|delta_t|, as a real setup's delay line does, so without excitation
jitter every emission begins at or after its trigger; a jittered one
before it is dropped, uncounted, by the gate.

Determinism: trials are generated in fixed-size chunks, each seeded from
(seed, chunk_index), so the clicks are bit-identical for a given config
regardless of how many workers generate the chunks.

A chunk is one event-file frame (`homsim.io.Frame`): its triggers and
their click list as generated. Chunks start and end on trigger
boundaries, the gate keeps every click inside its own trigger's window,
and `trigger_period` exceeds `window_length` by at least one tick, so
every click's tick lies below the next trigger's, and every stage works
chunk by chunk: `simulate_frames` yields the frames one by one for
`write_events`, in memory bounded by a few chunks; `simulate` lays them
out as one sorted stream; and `simulate_histograms` bins each where it
is made, with the per-frame step of `histogram_frames`, as `homsim
analyze` bins a file's, and sums the integer counts, so its histograms
equal those of the whole stream for any number of workers.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .analysis import CoincidenceHistogram, _frame_counts, histogram
from .errors import ConfigError
from .interference import Envelope, SourcePair, _check_bound, _inverse_cdf, _p_coincidence
from .io import (DET_A, DET_B, EventStream, Frame, Grid, _FRAME, _grid_fault, _ns_to_ticks,
                 _stream, _tick_ns, _whole_ticks)

_CHUNK = _FRAME  # triggers per chunk: a chunk is an event-file frame
_BOUNDED = {  # the kind of bound, in interference._BOUNDS, of each bounded field
    "eta_f": "probability", "eta_s": "probability", "xi": "probability",
    "tau_f": "tau", "tau_s": "tau", "detuning": "detuning", "delta_t": "delay",
    "excitation_jitter_sigma": "jitter", "bg_rate_a": "rate", "bg_rate_b": "rate",
    "detector_offset_a": "offset", "detector_offset_b": "offset",
}


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
            if f.type == "float":
                try:
                    finite = math.isfinite(value)
                except OverflowError:
                    raise ConfigError(
                        f"{f.name} must be finite, got an integer beyond the float range"
                    ) from None
                except TypeError:  # a string, None or a complex number, say
                    raise ConfigError(f"{f.name} must be a real number, got {value!r}") from None
                if not finite:
                    raise ConfigError(f"{f.name} must be finite, got {value}")
            if f.type == "int":
                try:
                    count = operator.index(value)  # an int or a numpy integer
                except TypeError:
                    raise ConfigError(f"{f.name} must be an integer, got {value!r}") from None
                # stored as an int, so the config hashes as the same run given ints
                object.__setattr__(self, f.name, count)
        if self.n_triggers <= 0:
            raise ConfigError(f"n_triggers must be positive, got {self.n_triggers}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for name, kind in _BOUNDED.items():
            _check_bound(name, getattr(self, name), kind, ConfigError)
        for name in ("window_length", "timestamp_resolution"):
            value = getattr(self, name)
            if value <= 0.0:
                raise ConfigError(f"{name} must be positive, got {value}")
        # A chunk draws Poisson(rate * window_length * _CHUNK) background
        # clicks per detector, and numpy refuses a mean above about 9.2e18;
        # 1e6 clicks per window, with no signal left to see, keep it below 6.6e10.
        for name in ("bg_rate_a", "bg_rate_b"):
            per_window = getattr(self, name) * self.window_length
            if per_window > 1e6:
                raise ConfigError(f"{name} * window_length, the mean background clicks "
                                  f"per window, must be at most 1e6, got {per_window:g}")
        # A gap of one tick keeps every click's tick below the next
        # trigger's, so pairing by tick gives each click to the trigger
        # whose window the gate kept it in. Past 2**53 ticks a float loses
        # whole ticks, so the gap is checked in ticks too, as an event
        # file's grid is.
        if (self.trigger_period - self.window_length < _tick_ns(self.timestamp_resolution)
                or _grid_fault(self.grid())):
            raise ConfigError(
                "trigger_period must exceed window_length by at least one timestamp tick "
                f"(timestamp_resolution / 1000 ns), got {self.trigger_period} and "
                f"{self.window_length}"
            )
        # Every click lies inside its trigger's window, so before
        # n_triggers * trigger_period: that many ticks must fit in int64.
        # A period is at least one tick, so the first test covers any
        # n_triggers too large for a float.
        ticks_per_period = _ns_to_ticks(self.trigger_period, self.timestamp_resolution)
        if self.n_triggers >= 2**63 or self.n_triggers * ticks_per_period >= 2**63:
            raise ConfigError(
                "the run's ticks, up to n_triggers * trigger_period * 1000 / "
                f"timestamp_resolution, must stay below 2**63 (int64), got "
                f"{self.n_triggers} triggers of {ticks_per_period:g} ticks"
            )

    def source_pair(self) -> SourcePair:
        """Analytic counterpart of this config: envelope starts relative to
        the trigger, the later-starting envelope delayed by |delta_t|."""
        env_f = Envelope(self.tau_f, t0=max(self.delta_t, 0.0))
        env_s = Envelope(
            self.tau_s, t0=max(-self.delta_t, 0.0), detuning=self.detuning
        )
        return SourcePair(env_f, env_s, self.xi)

    def grid(self) -> Grid:
        """The run's tick grid, as its event file's header holds it."""
        res = self.timestamp_resolution
        return Grid(self.trigger_period, res, _whole_ticks(self.window_length, res))


def _live(rng, count: int, eta: float) -> np.ndarray:
    """Sorted indices (uint32, an owner's type) of the triggers at which a
    source of efficiency `eta` emits: a binomial count of them, placed by
    a uniform sample. No draw at eta 0 or 1."""
    if eta >= 1.0:
        return np.arange(count, dtype=np.uint32)
    if eta <= 0.0:
        return np.empty(0, dtype=np.uint32)
    live = rng.choice(count, rng.binomial(count, eta), replace=False, shuffle=False)
    live = live.astype(np.uint32)
    live.sort()
    return live


def _shared(mine: np.ndarray, other: np.ndarray, count: int):
    """Positions in `mine` of the triggers `other` also holds (both sorted
    trigger indices): a slice where that is all of `mine`, so that the
    gathers at unit efficiency are views."""
    if other.size == count:
        return slice(None)
    marked = np.zeros(count, dtype=bool)
    marked[other] = True
    return np.flatnonzero(marked[mine])


def _photons(rng, config: ExperimentConfig, count: int):
    """Steps 1 to 5 of the draw order for a chunk of `count` triggers:
    per photon, f then s, its emission time as an offset in ns from its
    trigger, its owner (the trigger's index in the chunk) and its detector
    code."""
    pair = config.source_pair()
    on_f = _live(rng, count, config.eta_f)
    on_s = _live(rng, count, config.eta_s)
    n_f, n = on_f.size, on_f.size + on_s.size
    # The emission uniforms (f, then s), then the route uniforms: steps 2
    # and 3. A uniform is one draw of the generator, so two calls draw
    # what one call for both would. The times are made in place, and the
    # route uniforms go once they are routes.
    times = rng.random(n)
    t_f, t_s, to_a = times[:n_f], times[n_f:], rng.random(n) < 0.5
    t0_s = pair.env_s.t0
    if config.excitation_jitter_sigma > 0.0:
        t0_s = t0_s + rng.standard_normal(on_s.size) * config.excitation_jitter_sigma
    # the photons of the two-photon triggers, as positions in each source's arrays
    both_f, both_s = _shared(on_f, on_s, count), _shared(on_s, on_f, count)
    r_outcome = rng.random(on_f[both_f].size)

    _inverse_cdf(pair.env_f.t0, pair.env_f.tau, t_f, out=t_f)
    _inverse_cdf(t0_s, pair.env_s.tau, t_s, out=t_s)

    # Routing: a lone photon goes where its route uniform says. In a pair
    # the heralded photon does; the single-atom photon goes to the other
    # detector on a coincidence and to the same one on bunching.
    if r_outcome.size:
        t0_both = t0_s if np.ndim(t0_s) == 0 else t0_s[both_s]
        p_c = _p_coincidence(pair, t_f[both_f], t_s[both_s], pair.env_f.t0, t0_both)
        to_a[n_f:][both_s] = to_a[:n_f][both_f] ^ (r_outcome < p_c)
    detector = np.subtract(DET_B, to_a, dtype=np.uint8)  # DET_A where to_a
    return times, np.concatenate((on_f, on_s)), detector


def _simulate_chunk(config: ExperimentConfig, count: int, chunk_idx: int):
    """The clicks of chunk `chunk_idx` of a run, which holds `count` triggers.

    Returns the chunk's click list (offset ticks, owner, detector): per
    click, its owner (uint32) indexes this chunk's triggers, the one whose
    acquisition window the gate kept the click in; its offset (int64) is
    its tick less its owner's; and its detector is DET_A or DET_B (uint8).
    The clicks depend on the seed, the chunk index and the trigger count
    alone, not on the chunk's place in the run.
    """
    rng = np.random.default_rng([config.seed, chunk_idx])
    times, owner, detector = _photons(rng, config, count)
    # Step 6, uniform Poisson background over each acquisition window: a
    # Poisson total for the chunk, with uniform owners and offsets.
    w = config.window_length
    parts = [(times, owner, detector)]
    for code, rate in ((DET_A, config.bg_rate_a), (DET_B, config.bg_rate_b)):
        if rate > 0.0:
            n_bg = rng.poisson(rate * w * count)
            own = rng.integers(count, size=n_bg).astype(np.uint32)
            parts.append((rng.random(n_bg) * w, own, np.full(n_bg, code, np.uint8)))
    if len(parts) > 1:
        times, owner, detector = (np.concatenate(column) for column in zip(*parts))
    del parts  # the photons' own arrays go before the gate

    if config.detector_offset_a or config.detector_offset_b:
        by_code = np.zeros(DET_B + 1)
        by_code[DET_A], by_code[DET_B] = config.detector_offset_a, config.detector_offset_b
        times += by_code[detector]
    times = _ns_to_ticks(times, config.timestamp_resolution)  # the offset ticks, unfloored
    # The gate keeps a click whose offset tick lies in the window's n_w
    # ticks; `trigger_period` exceeds `window_length` by a tick, so every
    # offset tick stays below the next trigger's tick. Two reductions find
    # whether any click falls outside (jitter, an offset or a far tail);
    # only then is a mask built.
    n_w = _whole_ticks(w, config.timestamp_resolution)
    if times.size and (times.min() < 0.0 or times.max() >= n_w):
        keep = np.flatnonzero((times >= 0.0) & (times < n_w))
        times, owner, detector = times[keep], owner[keep], detector[keep]
    # The offset ticks, floored in the times' own buffer: each is cast where
    # its time is read, and every kept time is non-negative.
    offsets = times.view(np.int64)
    np.copyto(offsets, times, casting="unsafe")
    return offsets, owner, detector


def _spans(config: ExperimentConfig):
    """(first trigger, trigger count, chunk index) of each chunk of a run."""
    n = config.n_triggers
    return [
        (start, min(_CHUNK, n - start), idx)
        for idx, start in enumerate(range(0, n, _CHUNK))
    ]


def _imap(fn, tasks, workers: int, ahead: int) -> Iterator:
    """fn(t) for t in tasks, in order, on a pool of `workers` threads at
    any count (below 1 the pool raises ValueError); at most `ahead`
    results are made ahead of the consumer.

    Every call runs on the pool, never on the consumer's thread, which
    only takes the results. When the consumer stops early (a call raised,
    the consumer was interrupted or dropped the iterator), the calls not
    yet started are cancelled, and only those running are waited for.
    """
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        pending = deque(pool.submit(fn, t) for t in tasks[:ahead])
        for task in tasks[ahead:]:
            done = pending.popleft().result()
            pending.append(pool.submit(fn, task))
            yield done
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _frame(config: ExperimentConfig, span) -> Frame:
    """The frame of chunk `span`, (first trigger, trigger count, chunk index)."""
    first, count, idx = span
    return Frame(config.grid(), first, count, _simulate_chunk(config, count, idx))


def simulate_frames(config: ExperimentConfig, workers: int = 1) -> Iterator[Frame]:
    """The frames of `config`'s run, chunk by chunk in trigger order.

    `workers` threads generate every frame, at any count; the calling
    thread only takes them (to write, or to lay out). Nothing is generated
    before the first frame is asked for, and at most `workers` frames ahead
    of the one asked for; the frames are the same for any number of
    workers.
    """
    yield from _imap(partial(_frame, config), _spans(config), workers, workers)


def simulate(config: ExperimentConfig, workers: int = 1) -> EventStream:
    """Generate the detection-event stream for `config`.

    Args:
        config: validated experiment description.
        workers: number of threads generating chunks, at least 1; the
            output stream is identical for any count.

    Returns:
        EventStream sorted by (timestamp, detector), triggers first on ties:
        the frames of ``simulate_frames(config)`` laid out as
        ``read_events`` lays out a file's.
    """
    return _stream(simulate_frames(config, workers))


def simulate_histograms(
    configs: Sequence[ExperimentConfig],
    valid_window: float,
    bin_width: float,
    half_range: float,
    workers: int = 1,
) -> list[CoincidenceHistogram]:
    """Coincidence histogram of each config's run, without its event stream.

    Each chunk is paired and binned on the thread that generates it, by
    the per-frame step of ``histogram_frames``, as ``homsim analyze`` bins
    an event file's frames, and the integer counts are summed, so every
    histogram equals
    ``histogram(pair_events(simulate(config), valid_window).delta_ts,
    config.n_triggers, bin_width, half_range)`` bit for bit. The chunks
    of all configs share one pool of `workers` threads, which generate,
    pair and bin every chunk; the calling thread only sums the counts.
    """
    empty = histogram([], 1, bin_width, half_range)  # checks the binning first

    def chunk_counts(task):
        config, span = task
        return _frame_counts(_frame(config, span), valid_window, empty.counts.size,
                             bin_width, half_range)

    spans = [_spans(config) for config in configs]
    tasks = [(config, span) for config, own in zip(configs, spans) for span in own]
    # the counts are small: every chunk is queued at once, so no thread
    # waits on a longer chunk ahead of it; those not started are
    # cancelled if a chunk fails or the scan is interrupted
    counts = _imap(chunk_counts, tasks, workers, len(tasks))
    return [replace(empty, counts=sum(islice(counts, len(own)), empty.counts),
                    n_triggers=config.n_triggers)
            for config, own in zip(configs, spans)]
