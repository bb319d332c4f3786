"""Event streams, event files and the package's other output files.

An event file holds a run's click lists, frame by frame as the generator
makes them. It is binary and little-endian::

    header    the magic bytes 89 'HOMSIM' 0A and the format version, 2;
              the trigger period in ns and the tick length (resolution) in
              ps as float64; the acquisition window's whole ticks n_w,
              fewer than the period's unfloored ticks
    frame     its first trigger, its trigger count n and its click count
              m; then the m clicks' offset ticks (int64), their owners
              (uint32) and their detector codes (uint8)

Every count and version is an int64. A frame is one generator chunk,
triggers first .. first + n - 1 of the run, with 1 <= n <= ``_FRAME``;
the first frame starts at trigger 0 and each later one where the frame
before it ends. A click's owner indexes its frame's triggers, its offset
counts the ticks from its owner's tick and is below n_w, and its code is
1 (A) or 2 (B). Trigger i's tick is that of i * period, floored
(``_trigger_ticks``), so the header gives every trigger's tick, and a
click's tick is its owner's plus its offset: no tick is stored whole.
The clicks come in the generator's order.

A JSON sidecar (same path with a .json suffix) echoes the run
configuration and its hash, the record count ``n_records`` (triggers
plus clicks) and the ``sha256`` of the event file's bytes.

``read_frames`` raises ``DataFormatError`` naming the file for a header
other than format 2's or with a grid that no run has; naming the file
and the frame (from 0), and the click (from 0 in its frame) where one is
at fault, for a frame cut short in its counts or its clicks (checked
against the bytes left before any buffer is made), a trigger count
outside 1 .. ``_FRAME``, a negative click count, a first trigger that
does not continue from the frame before, triggers whose ticks pass
int64, an owner at or past the frame's trigger count, an offset at or
past n_w and a code other than A or B; naming the file for a file of no
frame, and when the sidecar's record count or digest disagrees with the
file; and naming the sidecar when it is not a JSON object.
``write_events`` refuses with ValueError the frames that the reader
would refuse, click arrays that are not 1-D integer arrays of one length,
and a sidecar config whose grid is not the frames'.

``_stream`` lays frames out as one stream sorted by tick: ``simulate``
and ``read_events`` both build their streams with it.

The other output files are written here too: every CSV table by
``write_table`` and every JSON file by ``write_json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DataFormatError

DET_T, DET_A, DET_B = 0, 1, 2
DETECTOR_LABELS = ("T", "A", "B")

# A non-ASCII first byte and a line feed, as in PNG's signature, so that a
# 7-bit or text-mode copy of a file breaks its header.
_MAGIC = b"\x89HOMSIM\n" + (2).to_bytes(8, "little")  # the magic, then format version 2
_GRID = struct.Struct("<ddq")  # the header's period, resolution and n_w, after the magic
_COUNTS = struct.Struct("<3q")  # a frame's first trigger, trigger count and click count
_CLICK_BYTES = 8 + 4 + 1  # offset, owner and code
# The most triggers a frame holds: a generator chunk's
_FRAME = 1 << 16


# The tick grid: every conversion between ns and ticks in the package.
def _tick_ns(resolution: float) -> float:
    """The length in ns of one tick of `resolution` ps."""
    return resolution / 1000.0


def _ns_to_ticks(times, resolution: float):
    """`times` in ns as unfloored ticks of `resolution` ps, scaled in place
    where `times` is an array; ``astype(np.int64)`` floors them where they
    are not negative."""
    times *= 1000.0 / resolution
    return times


def _whole_ticks(length: float, resolution: float, name: str = "length") -> int:
    """The whole ticks of `resolution` ps in `length` ns, at most 2**63 - 1.

    A length within 1e-9 tick below a whole number of ticks counts them
    all, so 500 ns holds 4000 ticks of 125 ps. Raises ValueError, naming
    the length `name`, unless it is finite and non-negative.
    """
    if not 0.0 <= length < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {length}")
    scaled = _ns_to_ticks(length, resolution) + 1e-9
    return math.floor(scaled) if scaled < 2**63 else 2**63 - 1


class Grid(NamedTuple):
    """A run's tick grid, as an event file's header holds it: the trigger
    period in ns, the tick length (resolution) in ps and the acquisition
    window's whole ticks."""

    period: float
    resolution: float
    n_w: int


class Frame(NamedTuple):
    """Triggers `first` .. `first` + `n_triggers` - 1 of a run on `grid`
    and their click list (offset ticks, owner, detector code): per click,
    the owner indexes these triggers, the offset counts the ticks from
    the owner's, and the code is DET_A or DET_B."""

    grid: Grid
    first: int
    n_triggers: int
    clicks: tuple


def _trigger_ticks(grid: Grid, first: int, count: int) -> np.ndarray:
    """The ticks of the trigger times (first + i) * period, i < count,
    floored; a run's grid keeps them within int64."""
    trig = np.arange(first, first + count, dtype=float)
    trig *= grid.period
    return _ns_to_ticks(trig, grid.resolution).astype(np.int64)


@dataclass
class EventStream:
    """Timestamped detection events from all three detectors.

    Attributes:
        detectors: uint8 array of codes (0=T trigger, 1=A, 2=B).
        timestamps: int64 array of resolution ticks since run start.
        resolution: tick size in picoseconds.
    """

    detectors: np.ndarray
    timestamps: np.ndarray
    resolution: float = 125.0

    def __post_init__(self):
        self.detectors = np.asarray(self.detectors, dtype=np.uint8)
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        if self.detectors.shape != self.timestamps.shape:
            raise ValueError("detector and timestamp arrays must match in length")
        if self.detectors.size and self.detectors.max() > DET_B:
            raise ValueError("detector codes must be 0 (T), 1 (A) or 2 (B)")

    def __len__(self) -> int:
        return self.timestamps.size

    def is_sorted(self) -> bool:
        # a comparison, not np.diff, which wraps for ticks 2**63 apart
        return not (self.timestamps[1:] < self.timestamps[:-1]).any()


def _stream(frames: Iterable[Frame]) -> EventStream:
    """The event stream of a run's frames (at least one), in order, each
    sorted by (tick, detector), so triggers first on ties: a click's tick
    is its owner's plus its offset. Every click's tick lies from its
    trigger's on and below the next one's, so the frames, in order, make
    up the run's sorted stream."""
    detectors, ticks = [], []
    for frame in frames:
        offsets, owner, codes = frame.clicks
        trig = _trigger_ticks(frame.grid, frame.first, frame.n_triggers)
        tick = np.concatenate((trig, trig[owner] + offsets))
        det = np.concatenate((np.zeros(trig.size, np.uint8), codes))
        order = np.lexsort((det, tick))
        ticks.append(tick[order])
        detectors.append(det[order])
    return EventStream(np.concatenate(detectors), np.concatenate(ticks), frame.grid.resolution)


def _grid_fault(grid: Grid) -> str | None:
    """Why no run has `grid`, or None: a run's period and tick length are
    positive and finite, and its window's whole ticks are fewer than its
    period's unfloored ticks, so that no click reaches the next trigger's
    tick."""
    period, resolution, n_w = grid
    if 0.0 < period < math.inf and 0.0 < resolution < math.inf:
        if 0 <= n_w < _ns_to_ticks(period, resolution):
            return None
    return (f"a trigger period of {period} ns, ticks of {resolution} ps and a window of "
            f"{n_w} ticks are no run's grid")


def _frame_fault(frame: Frame, first: int) -> str | None:
    """What keeps `frame` from following the frames whose triggers end
    before trigger `first`, or None; the text follows "frame <k>"."""
    grid, n = frame.grid, frame.n_triggers
    if not 0 < n <= _FRAME:
        return f" has a trigger count of {n}, not 1 to {_FRAME}"
    if frame.first != first:
        return f" starts at trigger {frame.first}, not at {first}, where the frame before ends"
    # as the run's config checks its last trigger
    if (first + n) * _ns_to_ticks(grid.period, grid.resolution) >= 2**63:
        return f" ends at trigger {first + n}, whose tick is past int64"
    # arrays like the reader's, so that the writer's casts lose nothing
    # and no short array broadcasts through the checks below
    offsets, owner, codes = frame.clicks
    if not (offsets.ndim == owner.ndim == codes.ndim == 1
            and offsets.size == owner.size == codes.size
            and all(c.dtype.kind in "iu" for c in frame.clicks)):
        return (": its offsets, owners and codes must be 1-D integer arrays of one length, "
                "got " + ", ".join(f"{c.dtype} {c.shape}" for c in frame.clicks))
    bad = (owner < 0) | (owner >= n)
    bad |= (offsets < 0) | (offsets >= grid.n_w)
    bad |= (codes != DET_A) & (codes != DET_B)
    if not bad.any():
        return None
    i = int(bad.argmax())
    if not 0 <= owner[i] < n:
        return f", click {i}: owner {owner[i]} is at or past the frame's {n} triggers"
    if not 0 <= offsets[i] < grid.n_w:
        return f", click {i}: offset {offsets[i]} is not within the window's {grid.n_w} ticks"
    return f", click {i}: detector code {codes[i]}, expected 1 (A) or 2 (B)"


def _echo_fault(config: dict, grid: Grid) -> str | None:
    """How a sidecar's config echo disagrees with the frames' `grid`, or
    None: its trigger period, timestamp resolution and window's whole
    ticks, each checked where the echo has its key."""
    resolution = config.get("timestamp_resolution", grid.resolution)
    window = config.get("window_length")
    echo = Grid(config.get("trigger_period", grid.period), resolution,
                grid.n_w if window is None else _whole_ticks(window, resolution, "window_length"))
    if echo == grid:
        return None
    return (f"the config's grid (period ns, tick ps, window ticks) is {tuple(echo)}, not the "
            f"frames' {tuple(grid)}")


def config_hash(mapping: dict) -> str:
    """Short stable hash of a configuration mapping, for file provenance."""
    canon = json.dumps(mapping, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def sidecar_path(events_path) -> Path:
    return Path(events_path).with_suffix(".json")


def write_events(frames: Iterable[Frame], path, metadata: dict | None = None) -> Path:
    """Write the event file of a run's frames and its JSON sidecar; returns
    the event file's path.

    The frames are written as they come, and the sidecar's record count
    and digest cover them all. Raises ValueError, and leaves neither file,
    for frames that ``read_frames`` would refuse, whose click arrays are
    not 1-D integer arrays of one length, or on different grids,
    for no frame at all, for `metadata` that would overwrite a field the
    sidecar takes from the frames (``n_records``, ``sha256``) and for a
    `metadata` ``config`` whose grid (``_echo_fault``) is not the frames'.
    ``config_hash`` may be supplied; by default it hashes `metadata`'s
    ``config``, or the sidecar without one.
    """
    metadata = metadata or {}
    clash = sorted({"n_records", "sha256"}.intersection(metadata))
    if clash:
        raise ValueError(f"metadata must not set the sidecar's own fields: {', '.join(clash)}")
    path = Path(path)
    digest, n_records, grid, end = hashlib.sha256(), 0, None, 0
    try:
        with open(path, "wb") as fh:
            def put(data):
                digest.update(data)
                fh.write(data)

            for k, frame in enumerate(frames):
                if grid is None:
                    grid = frame.grid
                    fault = _grid_fault(grid) or _echo_fault(metadata.get("config", {}), grid)
                    if fault:
                        raise ValueError(fault)
                    put(_MAGIC + _GRID.pack(*grid))
                elif frame.grid != grid:
                    raise ValueError("the frames of an event file must share one grid")
                fault = _frame_fault(frame, end)
                if fault:
                    raise ValueError(f"frame {k}{fault}")
                offsets, owner, codes = frame.clicks
                put(_COUNTS.pack(frame.first, frame.n_triggers, codes.size))
                put(np.ascontiguousarray(offsets, "<i8"))
                put(np.ascontiguousarray(owner, "<u4"))
                put(np.ascontiguousarray(codes, np.uint8))
                end += frame.n_triggers
                n_records += frame.n_triggers + codes.size
        if grid is None:
            raise ValueError("no frame to write: a run has at least one")
        sidecar = {"n_records": n_records, **metadata}
        sidecar.setdefault("config_hash", config_hash(sidecar.get("config", sidecar)))
        sidecar["sha256"] = digest.hexdigest()
        write_json(sidecar, sidecar_path(path))
    except BaseException:
        path.unlink(missing_ok=True)
        sidecar_path(path).unlink(missing_ok=True)
        raise
    return path


def write_json(payload: dict, path) -> Path:
    """Write `payload` as indented, key-sorted JSON plus a final newline."""
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_table(path, comments: dict, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write a CSV table: a ``# key=value`` line per item of `comments`, the
    `header` line, then a line per row, cells joined by commas as ``str``
    gives them (format floats first), each line ending in LF."""
    path = Path(path)
    with open(path, "w", newline="\n") as fh:
        fh.writelines(f"# {key}={value}\n" for key, value in comments.items())
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)
    return path


def read_sidecar(events_path) -> dict | None:
    """The sidecar's contents, or None when there is no sidecar.

    Raises DataFormatError naming the sidecar if it cannot be read (a
    directory, say) or is not a JSON object.
    """
    p = sidecar_path(events_path)
    if not p.exists():
        return None
    try:
        with open(p) as fh:
            meta = json.load(fh)
    except OSError as exc:
        raise DataFormatError(f"{p}: cannot read the sidecar ({exc.strerror})") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{p}: sidecar is not valid JSON ({exc})") from None
    if not isinstance(meta, dict):
        raise DataFormatError(f"{p}: sidecar is not a JSON object")
    return meta


def read_events(path) -> EventStream:
    """The event stream of an event file, laid out frame by frame as
    ``simulate`` lays out the run; raises what ``read_frames`` raises."""
    return _stream(read_frames(path))


def read_frames(path) -> Iterator[Frame]:
    """The frames of an event file, in file order, each read into a buffer
    of its own.

    Raises DataFormatError as the module's docstring lists: naming the
    sidecar, before the first frame, when it is not a JSON object; naming
    the file, after the last frame, when it holds none or the sidecar's
    ``n_records`` or ``sha256`` (each checked if present) does not match.
    """
    path = Path(path)
    meta = read_sidecar(path) or {}
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC) + _GRID.size)
        if head[: len(_MAGIC)] != _MAGIC:
            raise DataFormatError(
                f"{path}: not a homsim event file of format 2: its first bytes are "
                f"{head[:len(_MAGIC)]!r}, expected {_MAGIC!r}"
            )
        if len(head) < len(_MAGIC) + _GRID.size:
            raise DataFormatError(f"{path}: the header is cut short in its grid")
        grid = Grid(*_GRID.unpack_from(head, len(_MAGIC)))
        fault = _grid_fault(grid)
        if fault:
            raise DataFormatError(f"{path}: {fault}")
        digest, n_records, end, k = hashlib.sha256(head), 0, 0, 0
        left = os.fstat(fh.fileno()).st_size - len(head)  # the bytes after the header
        while left:
            counts = fh.read(_COUNTS.size)
            if len(counts) < _COUNTS.size:
                raise DataFormatError(f"{path}: frame {k} is cut short in its counts")
            first, n, m = _COUNTS.unpack(counts)
            left -= _COUNTS.size
            if m < 0:
                raise DataFormatError(f"{path}: frame {k} has a click count of {m}")
            # the count is checked against the bytes left before a buffer is made
            size = _CLICK_BYTES * m
            if size > left or fh.readinto(buf := bytearray(size)) < size:
                raise DataFormatError(
                    f"{path}: frame {k} is cut short: its {m} clicks take {size} bytes, "
                    f"{left} are left"
                )
            left -= size
            digest.update(counts)
            digest.update(buf)
            clicks = (np.frombuffer(buf, "<i8", m), np.frombuffer(buf, "<u4", m, 8 * m),
                      np.frombuffer(buf, np.uint8, m, 12 * m))
            frame = Frame(grid, first, n, clicks)
            fault = _frame_fault(frame, end)
            if fault:
                raise DataFormatError(f"{path}: frame {k}{fault}")
            yield frame
            n_records, end, k = n_records + n + m, end + n, k + 1
    if k == 0:
        raise DataFormatError(f"{path}: no frame follows the header: a run has at least one")
    if "n_records" in meta and meta["n_records"] != n_records:
        raise DataFormatError(
            f"{path}: {n_records} records but the sidecar says {meta['n_records']}"
        )
    if "sha256" in meta and meta["sha256"] != digest.hexdigest():
        raise DataFormatError(f"{path}: contents do not match the sidecar's sha256")
