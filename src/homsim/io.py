"""Event-stream container plus the event-file / JSON-sidecar format.

An event file is binary: a 16-byte header, then frames of records::

    header    the magic bytes 89 'HOMSIM' 0A, then the format version, 1
    frame     n, then n ticks, then n detector codes

Each count, version and tick is an int64 and each code a uint8, all
little-endian; a frame holds 1 to ``_FRAME`` (2**15) records. A code is
0 (T), 1 (A) or 2 (B). A tick counts resolution ticks since the start
of the run; the ticks never decrease, within a frame or across frames,
from a non-negative first one. Ticks come before codes, so that they
stay 8-byte aligned in the file. ``write_events`` writes frames of
``_FRAME`` records, the last one shorter, so a file's bytes depend on
its records alone, not on how they were chunked; the reader takes any
frame of 1 to ``_FRAME`` records. The writer copies at most one frame
per chunk: the records carried from the chunks before, completed with
the chunk's first ones. The rest of the chunk goes to the writer thread
as views, and what is left past its last whole frame is carried on. A
JSON sidecar (same path with a .json suffix) echoes the resolution, the
full run configuration and its hash, the record count ``n_records`` and
the ``sha256`` of the event file's bytes. The header does not repeat
the resolution: it comes from the sidecar, or is 125 ps when there is
no sidecar.

``read_events`` (and ``read_event_blocks``, as it reaches the fault)
raises ``DataFormatError`` naming the file, and the index of the record
(from 0) at fault, for a frame whose count is 0 or above ``_FRAME``, a
frame cut short (in its count or its records, checked against the bytes
left before any buffer is made), a code above 2, and a tick below the
one before it or a negative first one; naming the file for a header
other than format 1's, and when the sidecar's record count or digest
disagrees with the file; and naming the sidecar when it is not a JSON
object or its resolution is missing or not a positive number.

Each open event file has one I/O thread, so that its bytes overlap the
caller's work: while the caller makes the next chunk, the writer thread
hashes and writes the frames of the chunk before it; while the caller
works on a frame, the reader thread reads, hashes and checks the next
one. So one chunk or one frame is in flight beside the caller's, and no
more. The checks of ``write_events`` and every error's text and order
stay as on one thread, and the thread ends with the call or the
iterator.

The other output files are written here too: every CSV table by
``write_table`` and every JSON file by ``write_json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataFormatError

DET_T, DET_A, DET_B = 0, 1, 2
DETECTOR_LABELS = ("T", "A", "B")

# A non-ASCII first byte and a line feed, as in PNG's signature, so that a
# 7-bit or text-mode copy of a file breaks its header.
_HEADER = b"\x89HOMSIM\n" + (1).to_bytes(8, "little")  # the magic, then format version 1
# Records per frame: the writer's frames hold this many, the last fewer,
# and the reader refuses more. A frame is then at most 288 KiB.
_FRAME = 1 << 15


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

    @classmethod
    def concatenate(cls, streams: Sequence["EventStream"]) -> "EventStream":
        """One stream of `streams` (at least one), in order, at the first's resolution."""
        return cls(
            np.concatenate([s.detectors for s in streams]),
            np.concatenate([s.timestamps for s in streams]),
            streams[0].resolution,
        )


def config_hash(mapping: dict) -> str:
    """Short stable hash of a configuration mapping, for file provenance."""
    canon = json.dumps(mapping, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def sidecar_path(events_path) -> Path:
    return Path(events_path).with_suffix(".json")


def write_events(
    chunks: EventStream | Iterable[EventStream], path, metadata: dict | None = None
) -> Path:
    """Write the event file and its JSON sidecar; returns the event file's path.

    `chunks` is one stream or the consecutive chunks of one, written as
    they come in frames of ``_FRAME`` records, the last one shorter,
    whatever the chunks' sizes; the sidecar's record count and digest
    cover them all. Of each chunk, at most one frame is copied, the one
    that completes the records carried from the chunks before.
    Raises ValueError, and leaves neither file, for a chunk whose ticks
    ``read_events`` would reject (a negative or a decreasing one, within
    a chunk or across the seam with the chunk before), for chunks of
    different resolutions, for no chunk at all and for `metadata` that
    would overwrite a field the sidecar takes from the records
    (``resolution_ps``, ``n_records``, ``sha256``). ``config_hash`` may be
    supplied; by default it hashes `metadata`'s ``config``, or the sidecar without one.
    """
    clash = sorted({"resolution_ps", "n_records", "sha256"}.intersection(metadata or {}))
    if clash:
        raise ValueError(f"metadata must not set the sidecar's own fields: {', '.join(clash)}")
    if isinstance(chunks, EventStream):
        chunks = (chunks,)
    path = Path(path)
    digest, n_records, resolution, previous = hashlib.sha256(_HEADER), 0, None, 0
    codes, ticks = np.empty(0, np.uint8), np.empty(0, np.int64)  # not yet in a frame
    fh = open(path, "wb")
    try:
        with fh, ThreadPoolExecutor(max_workers=1) as writer:
            written = writer.submit(fh.write, _HEADER)
            try:
                for chunk in chunks:
                    new = chunk.timestamps
                    if not chunk.is_sorted() or (new.size and new[0] < previous):
                        raise ValueError("timestamps must be non-negative and must not decrease")
                    if resolution not in (None, chunk.resolution):
                        raise ValueError("the chunks of an event file must share one resolution")
                    n_records += new.size
                    previous, resolution = new[-1] if new.size else previous, chunk.resolution
                    head, rest = (codes[:0], ticks[:0]), (chunk.detectors, new)
                    if ticks.size:  # the records left over from the chunks before
                        # complete their frame with the chunk's first records: the
                        # one copy made of a chunk; the rest goes out as views
                        fill = _FRAME - ticks.size
                        head = (np.concatenate((codes, chunk.detectors[:fill])),
                                np.concatenate((ticks, new[:fill])))
                        rest = chunk.detectors[fill:], new[fill:]
                        if head[1].size < _FRAME:  # the chunk was too short: all is carried
                            head, rest = rest, head  # the rest is empty
                    whole = rest[1].size - rest[1].size % _FRAME
                    written.result()  # one chunk in flight: the one before is written
                    written = writer.submit(_write_frames, fh, digest, (head[0], rest[0][:whole]),
                                            (head[1], rest[1][:whole]))
                    codes, ticks = rest[0][whole:], rest[1][whole:]
                written.result()
                written = writer.submit(_write_frames, fh, digest, (codes,), (ticks,))
            finally:
                # the last frame is written before the sidecar, and a write
                # that failed raises before a later chunk's error does
                written.result()
            if resolution is None:
                raise ValueError("no chunk to write: a stream needs at least one")
        sidecar = {"resolution_ps": resolution, "n_records": n_records, **(metadata or {})}
        sidecar.setdefault("config_hash", config_hash(sidecar.get("config", sidecar)))
        sidecar["sha256"] = digest.hexdigest()
        write_json(sidecar, sidecar_path(path))
    except BaseException:
        path.unlink(missing_ok=True)
        sidecar_path(path).unlink(missing_ok=True)
        raise
    return path


def _write_frames(fh, digest, codes: Sequence[np.ndarray], ticks: Sequence[np.ndarray]) -> None:
    """Hash and write records given in consecutive pieces, `codes` and
    `ticks` each a sequence of arrays, as frames of _FRAME records, the
    last one shorter; every piece but the last holds whole frames (on the
    writer thread)."""
    for part_codes, part_ticks in zip(codes, ticks):
        part_codes = np.ascontiguousarray(part_codes)
        part_ticks = np.ascontiguousarray(part_ticks, "<i8")
        for start in range(0, part_ticks.size, _FRAME):
            end = start + _FRAME
            frame = part_ticks[start:end]
            for data in (frame.size.to_bytes(8, "little"), frame, part_codes[start:end]):
                digest.update(data)
                fh.write(data)


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


def _sidecar_resolution(events_path, meta: dict) -> float:
    p = sidecar_path(events_path)
    if "resolution_ps" not in meta:
        raise DataFormatError(f"{p}: sidecar has no resolution_ps")
    value = meta["resolution_ps"]
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (is_number and 0 < value < math.inf):
        raise DataFormatError(f"{p}: resolution_ps must be a positive number, got {value!r}")
    return float(value)


def read_events(path) -> EventStream:
    """Read an event file; resolution comes from the sidecar if present.

    The streams of ``read_event_blocks``, concatenated; it raises what
    that raises.
    """
    return EventStream.concatenate(list(read_event_blocks(path)))


def read_event_blocks(path) -> Iterator[EventStream]:
    """The records of an event file, one stream per frame, in file order,
    and then an empty stream at the end of the file.

    The resolution comes from the sidecar, or is 125 ps when there is no
    sidecar. Raises DataFormatError naming the file on a header other
    than format 1's; naming the file and the record index on a frame or
    record outside the format or out of order; and, after the empty last
    stream, naming the file when the sidecar's ``n_records`` or
    ``sha256`` (each checked if present) does not match the file. Raises
    it naming the sidecar, before the first frame, when that is not a
    JSON object or lacks a positive ``resolution_ps``.

    One I/O thread reads, hashes and checks the frame after the one
    handed out, while the caller works on that one.
    """
    blocks = _read_blocks(path)
    try:
        with ThreadPoolExecutor(max_workers=1) as reader:
            ahead = reader.submit(next, blocks, None)
            while (block := ahead.result()) is not None:
                ahead = reader.submit(next, blocks, None)
                yield block
    finally:
        # Closed early, the frame read ahead is dropped once read (the
        # executor waits for it), and the file is closed here.
        blocks.close()


def _read_blocks(path) -> Iterator[EventStream]:
    """The streams of ``read_event_blocks``, read on the thread that asks."""
    path = Path(path)
    meta = read_sidecar(path)
    resolution = 125.0 if meta is None else _sidecar_resolution(path, meta)
    meta = meta or {}
    with open(path, "rb") as fh:
        head = fh.read(len(_HEADER))
        if head != _HEADER:
            raise DataFormatError(
                f"{path}: not a homsim event file of format 1: its first bytes are "
                f"{head!r}, expected {_HEADER!r}"
            )
        digest, n_records, previous = hashlib.sha256(head), 0, 0
        left = os.fstat(fh.fileno()).st_size - len(head)  # the bytes after the header
        while left:
            where = f"{path}: the frame at record {n_records}"
            count = fh.read(8)
            n, left = int.from_bytes(count, "little", signed=True), left - 8
            if len(count) < 8:
                raise DataFormatError(f"{where} is cut short in its record count")
            if not 0 < n <= _FRAME:
                raise DataFormatError(f"{where} has a record count of {n}, not 1 to {_FRAME}")
            # the count is checked against the bytes left before a buffer is made
            if 9 * n > left or fh.readinto(frame := bytearray(9 * n)) < 9 * n:
                raise DataFormatError(
                    f"{where} is cut short: its {n} records take {9 * n} bytes, {left} are left"
                )
            left -= 9 * n
            digest.update(count)
            digest.update(frame)
            ticks = np.frombuffer(frame, "<i8", n)
            codes = np.frombuffer(frame, np.uint8, n, 8 * n)
            _check_frame(path, n_records, codes, ticks, previous)
            n_records, previous = n_records + n, int(ticks[-1])
            yield EventStream(codes, ticks, resolution)
    yield EventStream(np.empty(0, np.uint8), np.empty(0, np.int64), resolution)
    if "n_records" in meta and meta["n_records"] != n_records:
        raise DataFormatError(
            f"{path}: {n_records} records but the sidecar says {meta['n_records']}"
        )
    if "sha256" in meta and meta["sha256"] != digest.hexdigest():
        raise DataFormatError(f"{path}: contents do not match the sidecar's sha256")


def _check_frame(path: Path, first: int, codes, ticks, previous: int) -> None:
    """DataFormatError at the first record of a frame, record `first` of the
    file on, with a code above DET_B or a tick below the one before it
    (`previous` before the frame's first, 0 before the file's)."""
    bad = codes > DET_B
    bad[0] |= ticks[0] < previous
    bad[1:] |= ticks[1:] < ticks[:-1]  # a comparison: np.diff wraps
    if not bad.any():
        return
    i = int(bad.argmax())
    tick, index = int(ticks[i]), first + i
    if codes[i] > DET_B:
        raise DataFormatError(
            f"{path}: detector code {codes[i]} at record {index}, expected 0 (T), 1 (A) or 2 (B)"
        )
    if index == 0:
        raise DataFormatError(f"{path}: tick {tick} at record 0 is negative")
    raise DataFormatError(
        f"{path}: tick {tick} at record {index} is earlier than the record before it "
        f"({int(ticks[i - 1]) if i else previous}); records must be sorted by tick"
    )
