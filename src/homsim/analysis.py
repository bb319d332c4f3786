"""Coincidence analysis pipeline for timestamped detection events.

Mirrors a standard time-tag post-processing chain: group clicks by
trigger, keep sequences with a click near the trigger, histogram the
signed time difference between the earliest A and B clicks normalized per
trigger, estimate the accidental floor from the histogram wings, and form
visibilities and dip curves from windowed sums. The pairing kernel,
`pair_clicks`, works on one click list, per click its offset in ticks
from its trigger, its owner and its detector code: the generator's list,
as `homsim dip` makes it and an event file holds it. `histogram_frames`
pairs and bins a run frame by frame with the same kernel, for `homsim
analyze` and `homsim dip` alike, pairing every frame into its thread's
one first-click buffer; `pair_events` builds the same list from a sorted
in-memory stream, finding each click's owner with `np.searchsorted`. One
`np.minimum.at` finds the first click of every trigger and detector. It
takes the indices of a randomly mixed mask once (`np.flatnonzero`) and
gathers at those, because numpy indexes with such a mask several times
slower than with indices.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from functools import reduce
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DataFormatError, InsufficientStatisticsError
from .io import DET_A, DET_T, EventStream, Frame, _FRAME, _tick_ns, _whole_ticks

_ALIGN_TOL = 1e-9
# The most bins a histogram may have (1 ps bins over +-8 us): its counts
# and centres then take 128 MiB each. A binning that asks for more is
# refused before anything is allocated.
_MAX_BINS = 2**24
# The analysis defaults (ns), which homsim's config keys share
_VALID_WINDOW = 85.0
_BIN_WIDTH = 10.0
_HALF_RANGE = 205.0
_WING = (100.0, 200.0)
# A first click read unsigned where a trigger has none on a detector: -1
# as int64, beyond every offset and every window
_NONE = np.uint64(2**64 - 1)
# Per thread, the first-click buffer that every frame it bins is paired into
_scratch = threading.local()


@dataclass
class PairingResult:
    """Per-trigger click bookkeeping produced by :func:`pair_clicks`.

    first_a / first_b hold the earliest click per trigger as its offset in
    ticks from the trigger, or -1 where a detector never fired. `valid`
    marks sequences with at least one click within the validity window
    after the trigger. Coincidence time differences are formed only for
    valid sequences that have clicks on both detectors; `n_triggers`
    counts every trigger regardless.
    """

    valid: np.ndarray
    first_a: np.ndarray
    first_b: np.ndarray
    resolution: float

    @property
    def n_triggers(self) -> int:
        return int(self.valid.size)

    @property
    def paired(self) -> np.ndarray:
        return self.valid & _both(self.first_a, self.first_b)

    @property
    def delta_ts(self) -> np.ndarray:
        """Signed t_a - t_b in ns for every paired sequence."""
        return _delta_ts(self.first_a, self.first_b, self.valid, self.resolution)


def _both(first_a, first_b) -> np.ndarray:
    """Where a trigger has a first click on both detectors: neither is -1,
    so the sign bit of their OR is clear."""
    return np.bitwise_or(first_a, first_b) >= 0


def _delta_ts(first_a, first_b, valid, resolution: float) -> np.ndarray:
    """Signed t_a - t_b in ns of every valid trigger with a click on both
    detectors, from its first clicks (-1 where none came)."""
    sel = np.flatnonzero(valid & _both(first_a, first_b))
    diff = first_a[sel]
    diff -= first_b[sel]
    return diff * _tick_ns(resolution)


def _first_clicks(n_triggers: int, clicks, window_ticks: int, firsts: np.ndarray) -> np.ndarray:
    """Fill `firsts`, 2 `n_triggers` int64 entries, with each trigger's
    first click on A, then on B, as its offset ticks, or -1 where none
    came; returns where a trigger has a click within `window_ticks`."""
    offsets, owner, detector = clicks
    n = n_triggers
    # The click of trigger i at detector d goes to slot i + n * (d - DET_A).
    # Read as unsigned, -1 exceeds every offset, so it is left only where
    # no click came, and lies beyond every window.
    unsigned = firsts.view(np.uint64)
    unsigned.fill(_NONE)
    slot = np.multiply(detector, n, dtype=np.intp)
    slot += owner
    slot -= DET_A * n
    np.minimum.at(unsigned, slot, offsets.view(np.uint64))
    del slot  # not held through the validity test
    # A trigger has a click within the window if its first click on A or
    # on B is; two comparisons need no uint64 temporary of n entries.
    window_ticks = np.uint64(window_ticks)
    valid = unsigned[:n] <= window_ticks
    valid |= unsigned[n:] <= window_ticks
    return valid


def pair_clicks(n_triggers: int, clicks, valid_window: float, resolution: float) -> PairingResult:
    """Pairing kernel: first click per trigger on each detector, and validity.

    `clicks` is the click list (offset ticks, owner, detector) of
    `n_triggers` triggers: per click, `owner` indexes the triggers, the
    offset is the click's tick minus its owner's, so never negative, and
    `detector` is DET_A or DET_B. The earliest click of each trigger and
    detector is found with `np.minimum.at`, so clicks may come in any
    order. A sequence is valid if any click falls within `valid_window`
    ns after its trigger; raises ValueError unless `valid_window` is
    finite and non-negative. The result's arrays are the caller's own.
    """
    # a window beyond the largest tick difference keeps every click
    window_ticks = _whole_ticks(valid_window, resolution, "valid_window")
    n = n_triggers
    firsts = np.empty(2 * n, dtype=np.int64)
    valid = _first_clicks(n, clicks, window_ticks, firsts)
    return PairingResult(valid, firsts[:n], firsts[n:], resolution)


def pair_events(stream: EventStream, valid_window: float = _VALID_WINDOW) -> PairingResult:
    """Group A/B clicks by trigger and mark valid sequences.

    Every click is attributed to the most recent trigger at or before it
    (clicks preceding the first trigger are dropped). A sequence is valid
    if any click falls within `valid_window` ns after its trigger.

    Raises DataFormatError if the stream is not sorted by timestamp.
    """
    if not stream.is_sorted():
        raise DataFormatError("event stream must be sorted by timestamp")
    det = stream.detectors
    ts = stream.timestamps
    trigger_ticks = ts[det == DET_T]
    sel = np.flatnonzero(det != DET_T)
    click_ticks = ts[sel]
    owner = np.searchsorted(trigger_ticks, click_ticks, side="right") - 1
    # owners never decrease, so the clicks before the first trigger lead
    start = int(np.searchsorted(owner, 0))
    owner = owner[start:]
    offsets = click_ticks[start:]
    offsets -= trigger_ticks[owner]
    clicks = (offsets, owner, det[sel[start:]])
    del sel  # not held through the pairing
    return pair_clicks(trigger_ticks.size, clicks, valid_window, stream.resolution)


def histogram_frames(
    frames: Iterable[Frame], valid_window: float, bin_width: float, half_range: float
) -> CoincidenceHistogram:
    """Coincidence histogram of a run given as its frames (at least one).

    Each frame's click list is paired with :func:`pair_clicks` and binned,
    holding one frame at a time, and the integer counts are summed. The
    result equals ``histogram(pair_events(stream, valid_window).delta_ts,
    n_triggers, bin_width, half_range)`` of the run's whole stream bit for
    bit: the gate keeps every click inside its own trigger's window, so
    no frame's pairing depends on another's.
    """
    empty = histogram([], 1, bin_width, half_range)  # checks the binning first
    counts, n_triggers = empty.counts, 0
    for frame in frames:
        counts += _frame_counts(frame, valid_window, counts.size, bin_width, half_range)
        n_triggers += frame.n_triggers
    return replace(empty, counts=counts, n_triggers=n_triggers)


def _frame_counts(
    frame: Frame, valid_window: float, n_bins: int, bin_width: float, half_range: float
) -> np.ndarray:
    """One frame's counts in the `n_bins` bins of a binning that
    :func:`histogram` has checked: the frame is paired as
    :func:`pair_clicks` pairs it, into this thread's first-click buffer,
    and its differences, whole ticks in ns, are binned unchecked."""
    n, resolution = frame.n_triggers, frame.grid.resolution
    window_ticks = _whole_ticks(valid_window, resolution, "valid_window")
    firsts = getattr(_scratch, "firsts", None)
    if firsts is None or firsts.size < 2 * n:  # once per thread for a run's frames
        firsts = _scratch.firsts = np.empty(2 * max(n, _FRAME), dtype=np.int64)
    firsts = firsts[: 2 * n]
    valid = _first_clicks(n, frame.clicks, window_ticks, firsts)
    d = _delta_ts(firsts[:n], firsts[n:], valid, resolution)
    return _bin(d, n_bins, bin_width, half_range)


@dataclass
class CoincidenceHistogram:
    """Trigger-normalized histogram of signed coincidence time differences.

    Bins are half-open [lo, hi) of width `bin_width`, centered so one bin
    straddles zero. `values` is counts / n_triggers, the per-trigger
    coincidence probability per bin.
    """

    bin_width: float
    bin_centers: np.ndarray
    counts: np.ndarray
    n_triggers: int

    def __post_init__(self):
        if self.n_triggers <= 0:
            raise ValueError("n_triggers must be positive")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def values(self) -> np.ndarray:
        return self.counts / self.n_triggers

    def _half_range(self) -> float:
        return (self.bin_centers.size // 2 + 0.5) * self.bin_width

    def window_bins(self, t_c: float) -> np.ndarray:
        """Boolean mask of bins fully inside [-t_c, +t_c].

        t_c must coincide with bin edges (e.g. 25 or 75 for 10 ns bins
        centered on zero), be at least half a bin width, so that the
        window holds at least the central bin, and lie within the
        histogram's half range, so that no part of the window is cut off.
        """
        half = 0.5 * self.bin_width
        k = (t_c - half) / self.bin_width
        if not abs(k) < 2**63:
            raise ValueError(f"t_c={t_c} must be finite and within 2**63 bins of zero")
        if abs(k - round(k)) > _ALIGN_TOL:
            raise ValueError(
                f"t_c={t_c} does not align with bin edges (width {self.bin_width})"
            )
        if round(k) < 0:
            raise ValueError(
                f"t_c={t_c} selects no bin: it must be at least half the bin width ({half:g})"
            )
        if round(k) > self.bin_centers.size // 2:  # the bins on either side of the central one
            raise ValueError(
                f"t_c={t_c} is wider than the histogram's half range ({self._half_range():g})"
            )
        return np.abs(self.bin_centers) <= t_c - half + _ALIGN_TOL


def histogram(
    delta_ts: Sequence[float],
    n_triggers: int,
    bin_width: float = _BIN_WIDTH,
    half_range: float = _HALF_RANGE,
) -> CoincidenceHistogram:
    """Bin signed time differences into zero-centered bins.

    `half_range` is the histogram extent; bin edges run from -half_range
    to +half_range and must line up with the zero-centered grid, i.e.
    half_range = bin_width/2 + k*bin_width. Differences outside the range
    are dropped; a non-finite one raises ValueError.
    """
    if bin_width <= 0.0:
        raise ValueError("bin_width must be positive")
    if half_range < 0.5 * bin_width:
        raise ValueError("empty histogram range")
    k = (half_range - 0.5 * bin_width) / bin_width
    if not k < 2**62:
        raise ValueError(
            f"bin_width={bin_width} and half_range={half_range} must be finite "
            "and give fewer than 2**63 bins"
        )
    if abs(k - round(k)) > _ALIGN_TOL:
        raise ValueError(
            "half_range must terminate on a bin edge of the zero-centered grid"
        )
    n_bins = 2 * int(round(k)) + 1
    if n_bins > _MAX_BINS:
        raise ValueError(
            f"bin_width={bin_width} and half_range={half_range} give {n_bins} bins, "
            f"more than the {_MAX_BINS} a histogram may hold"
        )
    d = np.asarray(delta_ts, dtype=float)
    if not np.isfinite(d).all():
        raise ValueError("time differences must be finite")
    counts = _bin(d, n_bins, bin_width, half_range)
    centers = -half_range + (np.arange(n_bins) + 0.5) * bin_width
    return CoincidenceHistogram(bin_width, centers, counts, n_triggers)


def _bin(d: np.ndarray, n_bins: int, bin_width: float, half_range: float, weights=None):
    """Per bin of :func:`histogram`'s `n_bins` bins, the count of the
    finite differences `d` in ns that fall in it, or the sum of their
    `weights`; the differences outside the range are dropped."""
    # compared as floats, so an index beyond int64 is dropped, not cast
    with np.errstate(over="ignore"):  # a far difference may scale past the float range
        pos = d + half_range
        pos /= bin_width
        np.floor(pos, out=pos)
    inside = (pos >= 0) & (pos < n_bins)
    if weights is not None:
        weights = weights[inside]
    return np.bincount(pos[inside].astype(np.int64), weights, n_bins)


class AccidentalEstimate(NamedTuple):
    """An accidental floor per bin and per trigger, one level or a per-bin
    array matching the binning, and `sigma`, the standard error of its level."""

    g_acc: float | np.ndarray
    sigma: float


def estimate_accidentals(
    *histograms: CoincidenceHistogram, wing: tuple[float, float] = _WING
) -> AccidentalEstimate:
    """Mean per-bin value over the flat wings |dt| in [wing_lo, wing_hi].

    Each histogram's standard error follows from Poisson counting of its
    summed wing counts. Given several histograms (a parallel and a
    perpendicular run share one floor), returns the mean of their
    estimates, with the standard errors added in quadrature and divided
    by the number of histograms. The wings must lie within each
    histogram's half range, so that no part of them is cut off.
    """
    if not histograms:
        raise ValueError("need at least one histogram")
    lo, hi = wing
    if not lo >= 0.0:  # a wing from below |dt| = 0 would take in the central peak
        raise ValueError(f"wing ({lo:g}, {hi:g}) must start at a non-negative |dt|")
    if hi <= lo:
        raise ValueError("wing region must have positive extent")
    levels, sigmas = [], []
    for h in histograms:
        if hi > h._half_range() + _ALIGN_TOL:
            raise ValueError(
                f"wing ({lo:g}, {hi:g}) is wider than the histogram's half range ({h._half_range():g})"
            )
        sel = (np.abs(h.bin_centers) >= lo - _ALIGN_TOL) & (
            np.abs(h.bin_centers) <= hi + _ALIGN_TOL
        )
        n_sel = int(sel.sum())
        if n_sel == 0:
            raise ValueError("wing region contains no histogram bins")
        total = float(h.counts[sel].sum())
        levels.append(total / (n_sel * h.n_triggers))
        sigmas.append(np.sqrt(total) / (n_sel * h.n_triggers))
    n = len(histograms)
    return AccidentalEstimate(sum(levels) / n, float(reduce(np.hypot, sigmas)) / n)


@dataclass(frozen=True)
class VisibilityResult:
    """Interference visibility from a pair of histograms.

    v = 1 - sum(G_par - g_acc) / sum(G_perp - g_acc) over the coincidence
    window; sigma_v from Poisson propagation of the summed bin counts.
    """

    v: float
    sigma_v: float
    t_c: float
    g_acc: float


def visibility(
    h_par: CoincidenceHistogram,
    h_perp: CoincidenceHistogram,
    t_c: float,
    g_acc: AccidentalEstimate | None = None,
) -> VisibilityResult:
    """Visibility over the window dt in [-t_c, +t_c].

    `g_acc` is the accidental floor to subtract from both histograms, an
    :class:`AccidentalEstimate`, or None for the uncorrected visibility.
    The floor's window sum is its level times the window's bins, or the
    sum of a per-bin level over them; its error, the window's bin count
    times its sigma, enters sigma_v.

    Raises InsufficientStatisticsError if the corrected non-interfering
    window sum is not positive.
    """
    if h_par.bin_width != h_perp.bin_width or h_par.bin_centers.size != h_perp.bin_centers.size:
        raise ValueError("histograms must share identical binning")
    if not np.allclose(h_par.bin_centers, h_perp.bin_centers):
        raise ValueError("histograms must share identical binning")

    sel = h_par.window_bins(t_c)
    n_win = int(sel.sum())
    g_window = g_record = sigma_g = 0.0
    if g_acc is not None:
        level, sigma_g = g_acc.g_acc, g_acc.sigma
        if np.ndim(level) == 0:
            g_record = float(level)
            g_window = n_win * g_record
        else:
            level = np.asarray(level, dtype=float)
            if level.shape != h_par.bin_centers.shape:
                raise ValueError("per-bin g_acc must match the histogram binning")
            g_window = float(level[sel].sum())
            g_record = g_window / n_win

    counts_par = float(h_par.counts[sel].sum())
    counts_perp = float(h_perp.counts[sel].sum())
    num = counts_par / h_par.n_triggers - g_window
    den = counts_perp / h_perp.n_triggers - g_window
    if den <= 0.0:
        raise InsufficientStatisticsError(
            "non-interfering window sum is not positive after correction"
        )
    num = max(num, 0.0)  # counts cannot be negative; keeps v <= 1
    ratio = num / den

    sigma_num_sq = counts_par / h_par.n_triggers**2 + (n_win * sigma_g) ** 2
    sigma_den_sq = counts_perp / h_perp.n_triggers**2 + (n_win * sigma_g) ** 2
    sigma_ratio = np.sqrt(sigma_num_sq + ratio**2 * sigma_den_sq) / den
    return VisibilityResult(1.0 - ratio, float(sigma_ratio), t_c, g_record)


class DipPoint(NamedTuple):
    delta_t: float
    ratio: float
    sigma: float


def dip_curve(
    runs: Sequence[tuple[float, CoincidenceHistogram, CoincidenceHistogram]],
    t_c: float,
    wing: tuple[float, float] | None = None,
) -> list[DipPoint]:
    """Suppression ratio P_par/P_perp = 1 - V per delay-scan point.

    As in :func:`visibility`, `t_c` is the window's half-width: each point
    sums the bins in [-t_c, +t_c]. Given a `wing` (|dt| in [lo, hi]), each
    point subtracts the floor that :func:`estimate_accidentals` finds in
    those wings of its pair of histograms; without one, no floor.
    """
    points = []
    for delta_t, h_par, h_perp in runs:
        g = None if wing is None else estimate_accidentals(h_par, h_perp, wing=wing)
        res = visibility(h_par, h_perp, t_c, g)
        points.append(DipPoint(delta_t, 1.0 - res.v, res.sigma_v))
    return points
