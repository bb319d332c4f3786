"""Coincidence analysis pipeline for timestamped detection events.

Mirrors a standard time-tag post-processing chain: group clicks by
trigger, keep sequences with a click near the trigger, histogram the
signed time difference between the earliest A and B clicks normalized per
trigger, estimate the accidental floor from the histogram wings, and form
visibilities and dip curves from windowed sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataFormatError, InsufficientStatisticsError
from .io import DET_A, DET_B, DET_T, EventStream, write_json

_ALIGN_TOL = 1e-9


@dataclass
class PairingResult:
    """Per-trigger click bookkeeping produced by :func:`pair_clicks`.

    first_a / first_b hold the earliest click per trigger in ticks, or -1
    where a detector never fired. `valid` marks sequences with at least
    one click within the validity window after the trigger. Coincidence
    time differences are formed only for valid sequences that have clicks
    on both detectors; `n_triggers` counts every trigger regardless.
    """

    trigger_ticks: np.ndarray
    valid: np.ndarray
    first_a: np.ndarray
    first_b: np.ndarray
    resolution: float

    @property
    def n_triggers(self) -> int:
        return int(self.trigger_ticks.size)

    @property
    def paired(self) -> np.ndarray:
        return self.valid & (self.first_a >= 0) & (self.first_b >= 0)

    @property
    def delta_ts(self) -> np.ndarray:
        """Signed t_a - t_b in ns for every paired sequence."""
        sel = self.paired
        diff = self.first_a[sel] - self.first_b[sel]
        return diff * (self.resolution / 1000.0)


def _assign(click_ticks, trigger_ticks):
    idx = np.searchsorted(trigger_ticks, click_ticks, side="right") - 1
    keep = idx >= 0
    return click_ticks[keep], idx[keep]


_MAX_TICK = np.iinfo(np.int64).max
_NO_CLICK = _MAX_TICK


def pair_clicks(trigger_ticks, a, b, valid_window: float, resolution: float) -> PairingResult:
    """Pairing kernel: first click per trigger on each detector, and validity.

    `a` and `b` are (click ticks, owner) pairs for detectors A and B;
    `owner` indexes `trigger_ticks`. The earliest click of each trigger is
    found with `np.minimum.at`, so clicks may come in any order. A
    sequence is valid if any click falls within `valid_window` ns after
    its trigger; raises ValueError unless `valid_window` is finite and
    non-negative.
    """
    if not 0.0 <= valid_window < math.inf:
        raise ValueError(f"valid_window must be finite and non-negative, got {valid_window}")
    n = trigger_ticks.size
    # a window beyond the largest tick difference keeps every click
    scaled = valid_window * 1000.0 / resolution + 1e-9
    window_ticks = math.floor(scaled) if scaled < _MAX_TICK else _MAX_TICK
    valid = np.zeros(n, dtype=bool)
    firsts = []
    for ticks, owner in (a, b):
        near = (ticks - trigger_ticks[owner]) <= window_ticks
        valid[owner[near]] = True
        first = np.full(n, _NO_CLICK, dtype=np.int64)
        np.minimum.at(first, owner, ticks)
        first[first == _NO_CLICK] = -1
        firsts.append(first)
    return PairingResult(trigger_ticks, valid, firsts[0], firsts[1], resolution)


def pair_events(stream: EventStream, valid_window: float = 85.0) -> PairingResult:
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
    a, b = (_assign(ts[det == code], trigger_ticks) for code in (DET_A, DET_B))
    return pair_clicks(trigger_ticks, a, b, valid_window, stream.resolution)


def coincidence_fraction(stream: EventStream) -> float:
    """Fraction of triggers with at least one click on each output detector."""
    pairing = pair_events(stream)
    return float(np.mean((pairing.first_a >= 0) & (pairing.first_b >= 0)))


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

    def window_bins(self, t_c: float) -> np.ndarray:
        """Boolean mask of bins fully inside [-t_c, +t_c].

        t_c must coincide with bin edges (e.g. 25 or 75 for 10 ns bins
        centered on zero).
        """
        half = 0.5 * self.bin_width
        if abs((t_c - half) / self.bin_width - round((t_c - half) / self.bin_width)) > _ALIGN_TOL:
            raise ValueError(
                f"t_c={t_c} does not align with bin edges (width {self.bin_width})"
            )
        return np.abs(self.bin_centers) <= t_c - half + _ALIGN_TOL


def histogram(
    delta_ts: Sequence[float],
    n_triggers: int,
    bin_width: float = 10.0,
    half_range: float = 205.0,
) -> CoincidenceHistogram:
    """Bin signed time differences into zero-centered bins.

    `half_range` is the histogram extent; bin edges run from -half_range
    to +half_range and must line up with the zero-centered grid, i.e.
    half_range = bin_width/2 + k*bin_width.
    """
    if bin_width <= 0.0:
        raise ValueError("bin_width must be positive")
    if half_range < 0.5 * bin_width:
        raise ValueError("empty histogram range")
    k = (half_range - 0.5 * bin_width) / bin_width
    if abs(k - round(k)) > _ALIGN_TOL:
        raise ValueError(
            "half_range must terminate on a bin edge of the zero-centered grid"
        )
    n_bins = 2 * int(round(k)) + 1
    d = np.asarray(delta_ts, dtype=float)
    idx = np.floor((d + half_range) / bin_width).astype(np.int64)
    inside = (idx >= 0) & (idx < n_bins)
    counts = np.bincount(idx[inside], minlength=n_bins)
    centers = -half_range + (np.arange(n_bins) + 0.5) * bin_width
    return CoincidenceHistogram(bin_width, centers, counts, n_triggers)


class AccidentalEstimate(NamedTuple):
    g_acc: float
    sigma: float


def estimate_accidentals(
    *histograms: CoincidenceHistogram, wing: tuple[float, float] = (100.0, 200.0)
) -> AccidentalEstimate:
    """Mean per-bin value over the flat wings |dt| in [wing_lo, wing_hi].

    Each histogram's standard error follows from Poisson counting of its
    summed wing counts. Given several histograms (a parallel and a
    perpendicular run share one floor), returns the mean of their
    estimates, with the standard errors added in quadrature and divided
    by the number of histograms.
    """
    if not histograms:
        raise ValueError("need at least one histogram")
    lo, hi = wing
    if hi <= lo:
        raise ValueError("wing region must have positive extent")
    levels, sigmas = [], []
    for h in histograms:
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

    def to_dict(self) -> dict:
        return {"v": self.v, "sigma_v": self.sigma_v, "t_c": self.t_c, "g_acc": self.g_acc}


def visibility(
    h_par: CoincidenceHistogram,
    h_perp: CoincidenceHistogram,
    t_c: float,
    g_acc: float | AccidentalEstimate | np.ndarray = 0.0,
) -> VisibilityResult:
    """Visibility over the window dt in [-t_c, +t_c].

    `g_acc` is the accidental floor to subtract from both histograms:
    0 for an uncorrected estimate, a scalar constant per bin (the usual
    wing estimate), an AccidentalEstimate (folds its uncertainty into
    sigma_v), or a full per-bin array matching the histogram binning for
    a structured floor.

    Raises InsufficientStatisticsError if the corrected non-interfering
    window sum is not positive.
    """
    if h_par.bin_width != h_perp.bin_width or h_par.bin_centers.size != h_perp.bin_centers.size:
        raise ValueError("histograms must share identical binning")
    if not np.allclose(h_par.bin_centers, h_perp.bin_centers):
        raise ValueError("histograms must share identical binning")

    sel = h_par.window_bins(t_c)
    n_win = int(sel.sum())
    sigma_g = 0.0
    if isinstance(g_acc, AccidentalEstimate):
        g_window = n_win * g_acc.g_acc
        sigma_g = g_acc.sigma
        g_record = g_acc.g_acc
    elif np.ndim(g_acc) == 0:
        g_record = float(g_acc)
        g_window = n_win * g_record
    else:
        g_arr = np.asarray(g_acc, dtype=float)
        if g_arr.shape != h_par.bin_centers.shape:
            raise ValueError("per-bin g_acc must match the histogram binning")
        g_window = float(g_arr[sel].sum())
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
    t_c: float = 150.0,
    subtract_accidentals: bool = False,
    wing: tuple[float, float] = (100.0, 200.0),
) -> list[DipPoint]:
    """Suppression ratio P_par/P_perp = 1 - V per delay-scan point.

    Unlike :func:`visibility`, `t_c` here is the total window length (the
    window is the symmetric interval [-t_c/2, +t_c/2]). With
    `subtract_accidentals`, each point subtracts the wing floor that
    :func:`estimate_accidentals` finds in its pair of histograms.
    """
    points = []
    for delta_t, h_par, h_perp in runs:
        g = estimate_accidentals(h_par, h_perp, wing=wing) if subtract_accidentals else 0.0
        res = visibility(h_par, h_perp, 0.5 * t_c, g)
        points.append(DipPoint(delta_t, 1.0 - res.v, res.sigma_v))
    return points


class FitResult(NamedTuple):
    scale: float
    offset: float


def fit_scale(model, data, with_offset: bool = True) -> FitResult:
    """Least-squares fit data ~ offset + scale * model.

    Raises ValueError for fewer than 2 points or a degenerate model
    (constant when fitting an offset, identically zero otherwise).
    """
    m = np.asarray(model, dtype=float)
    y = np.asarray(data, dtype=float)
    if m.shape != y.shape or m.size < 2:
        raise ValueError("need at least 2 matching model/data points")
    if with_offset:
        if np.ptp(m) == 0.0:
            raise ValueError("model values are all equal; scale is degenerate")
        design = np.column_stack([m, np.ones_like(m)])
    else:
        if not np.any(m):
            raise ValueError("model is identically zero")
        design = m[:, None]
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    if with_offset:
        return FitResult(float(coef[0]), float(coef[1]))
    return FitResult(float(coef[0]), 0.0)


def write_histogram_csv(h: CoincidenceHistogram, path, config_hash: str = "") -> Path:
    """Write bin_center_ns,counts,value rows (config hash on a comment line)."""
    path = Path(path)
    with open(path, "w") as fh:
        if config_hash:
            fh.write(f"# config_hash={config_hash}\n")
        fh.write(f"# n_triggers={h.n_triggers}\n")
        fh.write("bin_center_ns,counts,value\n")
        for c, n, v in zip(h.bin_centers, h.counts, h.values):
            fh.write(f"{c:g},{int(n)},{v:.12g}\n")
    return path


def write_visibility_json(
    result: VisibilityResult, path, config_hash: str = "", extra: dict | None = None
) -> Path:
    path = Path(path)
    payload = result.to_dict()
    payload["config_hash"] = config_hash
    if extra:
        payload.update(extra)
    return write_json(payload, path)


def write_dip(
    points: Sequence[DipPoint], model: Sequence[float], out_dir, config_hash: str = ""
) -> tuple[Path, Path]:
    """Write a delay scan with its model ratios as dip.csv and dip.json."""
    out_dir = Path(out_dir)
    csv_path, json_path = out_dir / "dip.csv", out_dir / "dip.json"
    with open(csv_path, "w") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        fh.write("delta_t_ns,ratio,sigma,model_ratio\n")
        for p, m in zip(points, model):
            fh.write(f"{p.delta_t:g},{p.ratio:.12g},{p.sigma:.12g},{m:.12g}\n")
    payload = {
        "config_hash": config_hash,
        "points": [
            {"delta_t": p.delta_t, "ratio": p.ratio, "sigma": p.sigma, "model": m}
            for p, m in zip(points, model)
        ],
    }
    write_json(payload, json_path)
    return csv_path, json_path


def write_oracle(
    curves: dict[str, tuple[Sequence[float], Sequence[float]]],
    visibility: float,
    out_dir,
    config_hash: str = "",
) -> Path:
    """Write the analytic model as oracle.csv: a `quantity,x_ns,value` row
    per point of each named curve (x grid, values), then the visibility."""
    path = Path(out_dir) / "oracle.csv"
    with open(path, "w") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        fh.write("quantity,x_ns,value\n")
        for quantity, (xs, values) in curves.items():
            for x, value in zip(xs, values):
                fh.write(f"{quantity},{x:g},{value:.12g}\n")
        fh.write(f"visibility,,{visibility:.12g}\n")
    return path
