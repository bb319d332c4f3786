"""Measurements the tests take of a simulated event stream, and the
test-side forms of five library ideas: the two-photon outcome law as a
triple, an event stream built from labelled records, an event file's
header and frames built from their fields, the shortest trigger period
a config accepts, and the floor of times onto ticks, checked, for the
reference generator."""

import math
import struct

import numpy as np

from homsim import EventStream, pair_events
from homsim.interference import _p_coincidence
from homsim.io import _MAGIC, DETECTOR_LABELS


def coincidence_fraction(stream):
    """Fraction of triggers with at least one click on each output detector."""
    pairing = pair_events(stream)
    return float(np.mean((pairing.first_a >= 0) & (pairing.first_b >= 0)))


def conditional_outcome_probs(pair, t1, t2):
    """Outcome law for one two-photon trial with sampled detection times.

    t1 is drawn from |psi_f|^2 and t2 from |psi_s|^2. Returns the triple
    (p_coincidence, p_bunch_a, p_bunch_b), which sums to 1; the photons
    bunch at either detector with probability (1 - p_coincidence) / 2.
    Raises ValueError if a sample has neither pair amplitude supported.
    """
    t0_f, t0_s = pair.env_f.t0, pair.env_s.t0
    t1_arr, t2_arr = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    direct = (t1_arr >= t0_f) & (t2_arr >= t0_s)
    swapped = (t2_arr >= t0_f) & (t1_arr >= t0_s)
    if not np.all(direct | swapped):
        raise ValueError("both pair amplitudes vanish; the sample cannot occur")
    p_c = _p_coincidence(pair, t1_arr, t2_arr, t0_f, t0_s)
    p_same = 0.5 * (1.0 - p_c)
    if np.ndim(t1) == 0 and np.ndim(t2) == 0:
        return float(p_c), float(p_same), float(p_same)
    return p_c, p_same, p_same


def stream_from_records(records, resolution=125.0):
    """An event stream of (label, ticks) pairs, e.g. [("T", 0), ("A", 400)]."""
    codes = np.array([DETECTOR_LABELS.index(label) for label, _ in records], dtype=np.uint8)
    ticks = np.array([tick for _, tick in records], dtype=np.int64)
    return EventStream(codes, ticks, resolution)


def header(period=1000.0, resolution=125.0, n_w=4000):
    """The bytes of an event file's header: the magic and version, then
    the grid, by default that of the default config."""
    return _MAGIC + struct.pack("<ddq", period, resolution, n_w)


def frame(first, n_triggers, clicks=(), counts=None):
    """The bytes of one event-file frame of triggers `first` .. `first` +
    `n_triggers` - 1 and `clicks`, (label or code, owner, offset) triples,
    e.g. [("A", 0, 400), (3, 1, 5)]: the counts (`counts`, a triple of
    first trigger, trigger count and click count, if given), then the
    offsets as int64, the owners as uint32 and the codes as uint8,
    little-endian. An offset is written modulo 2**64, so 2**63 reads back
    as -2**63, and an owner modulo 2**32."""
    codes = [DETECTOR_LABELS.index(c) if isinstance(c, str) else c for c, _, _ in clicks]
    owners = np.array([owner % 2**32 for _, owner, _ in clicks], dtype="<u4")
    offsets = np.array([offset % 2**64 for _, _, offset in clicks], dtype="<u8")
    counts = (first, n_triggers, len(clicks)) if counts is None else counts
    return struct.pack("<3q", *counts) + offsets.tobytes() + owners.tobytes() + bytes(codes)


def event_file(path, *frames, head=None):
    """Write `head` (by default ``header()``) and then the `frames` (bytes)
    to `path`; returns `path`."""
    path.write_bytes((header() if head is None else head) + b"".join(frames))
    return path


def smallest_period(window_length, resolution):
    """The shortest trigger period a config accepts for this window."""
    tick = resolution / 1000.0
    period = window_length + tick
    while period - window_length < tick:
        period = float(np.nextafter(period, np.inf))
    return period


def quantize(t, resolution=125.0):
    """Floor a time in ns onto integer ticks of `resolution` ps.

    Raises ValueError for a resolution that is not positive and finite,
    for a negative or non-finite time and for one whose tick does not fit
    in int64.
    """
    if not 0.0 < resolution < math.inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
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
