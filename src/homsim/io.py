"""Event-stream container plus the event-file / JSON-sidecar format.

An event file is ASCII text in one strict line grammar::

    detector,timestamp<LF>
    (T|A|B),(0|[1-9][0-9]*)<LF>      zero or more records

The timestamp counts resolution ticks since the start of the run. It
must fit in int64 and must not decrease from one record to the next.
This is exactly the text ``write_events`` writes. A JSON sidecar (same
path with a .json suffix) echoes the resolution, the full run
configuration and its hash, the record count ``n_records`` and the
``sha256`` of the event file's bytes.

``read_events`` (and ``read_event_blocks``, as it reaches the fault)
raises ``DataFormatError`` naming the file and physical line for a line
outside the grammar (a last line without its line break included), a
timestamp beyond int64 or a record out of timestamp order; naming the
file when the sidecar's record count or digest disagrees with the file;
and naming the sidecar when it is not a JSON object or its resolution
is missing or not a positive number.

Sorted ticks have non-decreasing digit counts, so any stretch of
records falls into at most ``_MAX_DIGITS`` runs of fixed-width rows
(``_width_runs``). ``write_events`` takes the records as a sequence of
chunk streams, so a run need never be held whole: it checks each chunk's
order and its seam with the chunk before, formats each run of a slice
of ``_WRITE_SLICE`` records as one uint8 array, a row per line, with the
digit columns filled from the right, and counts and hashes the records
as it writes them. ``read_event_blocks`` makes one pass over the file in
blocks of ``_READ_BLOCK`` bytes: it hashes each block, parses the
block's whole lines run by run, column by column, carries a partial
last line into the next block and yields the block's records; after
the last block it checks the sidecar. ``read_events`` concatenates the
blocks.

Each open event file has one I/O thread, so that its bytes overlap the
caller's work: while the caller makes the next chunk, the writer thread
formats, hashes and writes the chunk before it; while the caller works
on a block, the reader thread reads, hashes and parses the next one. So
one chunk or one block is in flight beside the caller's, and no more.
The checks of ``write_events`` and every error's text and order stay
as on one thread, and the thread ends with the call or the iterator.

The other output files are written here too: every CSV table by
``write_table`` and every JSON file by ``write_json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataFormatError

DET_T, DET_A, DET_B = 0, 1, 2
DETECTOR_LABELS = ("T", "A", "B")

EVENT_HEADER = ("detector", "timestamp")
_HEADER = (",".join(EVENT_HEADER) + "\n").encode()
_INT64_MAX = np.iinfo(np.int64).max
_MAX_DIGITS = len(str(_INT64_MAX))
# Detector code of each byte value; every byte but a label maps past DET_B.
_LABEL_BYTE = np.frombuffer("".join(DETECTOR_LABELS).encode(), np.uint8)  # of each code
_CODE_OF_BYTE = np.full(256, DET_B + 1, dtype=np.uint8)
_CODE_OF_BYTE[_LABEL_BYTE] = np.arange(_LABEL_BYTE.size)
_POWERS_OF_TEN = 10 ** np.arange(1, _MAX_DIGITS, dtype=np.int64)  # 10 .. 10**18
# Records formatted per slice: big enough to amortise the per-run numpy
# calls and the write call, small enough that a slice's rows (at most 22
# bytes a record) and its int64 digit arithmetic stay below 1 MB.
_WRITE_SLICE = 1 << 15
_READ_BLOCK = 1 << 18  # bytes; larger blocks read no faster but raise the peak memory


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


def _width_runs(widths: np.ndarray) -> list[tuple[int, int, int]]:
    """(lo, hi, k) of each run ``widths[lo:hi] == k`` of the positive
    digit counts `widths`, in order."""
    firsts = np.flatnonzero(np.diff(widths, prepend=0)).tolist()
    return [(lo, hi, int(widths[lo])) for lo, hi in zip(firsts, firsts[1:] + [widths.size])]


def _file_bytes(stream: EventStream) -> Iterator[bytes]:
    """The records of `stream` as event-file lines, one run of fixed-width
    rows at a time. The ticks must be non-negative; sorted, they make at
    most _MAX_DIGITS runs a slice."""
    for start in range(0, len(stream), _WRITE_SLICE):
        codes = stream.detectors[start : start + _WRITE_SLICE]
        ticks = stream.timestamps[start : start + _WRITE_SLICE]
        widths = np.searchsorted(_POWERS_OF_TEN, ticks, side="right") + 1
        for lo, hi, k in _width_runs(widths):
            rows = np.empty((hi - lo, k + 3), np.uint8)  # label , k digits LF
            rows[:, 0] = _LABEL_BYTE[codes[lo:hi]]
            rows[:, 1] = ord(",")
            rows[:, -1] = ord("\n")
            value = ticks[lo:hi]
            for j in range(k + 1, 1, -1):  # the digit columns, from the right
                tens = value // 10  # with the subtraction, faster than np.divmod
                rows[:, j] = value - 10 * tens + ord("0")
                value = tens
            yield rows.tobytes()


def write_events(
    chunks: EventStream | Iterable[EventStream], path, metadata: dict | None = None
) -> Path:
    """Write the CSV event file and its JSON sidecar; returns the CSV path.

    `chunks` is one stream or the consecutive chunks of one, written as
    they come; the sidecar's record count and digest cover them all.
    Raises ValueError, and leaves neither file, for a chunk whose ticks
    ``read_events`` would reject (a negative or a decreasing one, within
    a chunk or across the seam with the chunk before), for chunks of
    different resolutions, for no chunk at all and for `metadata` that
    would overwrite a field the sidecar takes from the records
    (``resolution_ps``, ``n_records``, ``sha256``); ``config_hash`` may be
    supplied.
    """
    clash = sorted({"resolution_ps", "n_records", "sha256"}.intersection(metadata or {}))
    if clash:
        raise ValueError(f"metadata must not set the sidecar's own fields: {', '.join(clash)}")
    if isinstance(chunks, EventStream):
        chunks = (chunks,)
    path = Path(path)
    digest, n_records, resolution, previous = hashlib.sha256(_HEADER), 0, None, 0
    fh = open(path, "wb")
    try:
        with fh, ThreadPoolExecutor(max_workers=1) as writer:
            written = writer.submit(fh.write, _HEADER)
            try:
                for chunk in chunks:
                    ticks = chunk.timestamps
                    if not chunk.is_sorted() or (ticks.size and ticks[0] < previous):
                        raise ValueError("timestamps must be non-negative and must not decrease")
                    if resolution not in (None, chunk.resolution):
                        raise ValueError("the chunks of an event file must share one resolution")
                    written.result()  # one chunk in flight: the one before is written
                    written = writer.submit(_write_chunk, fh, digest, chunk)
                    n_records += ticks.size
                    previous, resolution = ticks[-1] if ticks.size else previous, chunk.resolution
            finally:
                # the last chunk is written before the sidecar, and a write
                # that failed raises before a later chunk's error does
                written.result()
            if resolution is None:
                raise ValueError("no chunk to write: a stream needs at least one")
        sidecar = {"resolution_ps": resolution, "n_records": n_records}
        if metadata:
            sidecar.update(metadata)
        sidecar.setdefault("config_hash", config_hash(sidecar))
        sidecar["sha256"] = digest.hexdigest()
        write_json(sidecar, sidecar_path(path))
    except BaseException:
        path.unlink(missing_ok=True)
        sidecar_path(path).unlink(missing_ok=True)
        raise
    return path


def _write_chunk(fh, digest, chunk: EventStream) -> None:
    """Format, hash and write the records of `chunk` (on the writer thread)."""
    for data in _file_bytes(chunk):
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

    The blocks of ``read_event_blocks``, concatenated; it raises what
    that raises.
    """
    return EventStream.concatenate(list(read_event_blocks(path)))


def read_event_blocks(path) -> Iterator[EventStream]:
    """The records of an event file, one stream per block read, in file
    order; the last block, read at the end of the file, is empty.

    The resolution comes from the sidecar, or is 125 ps when there is no
    sidecar. Raises DataFormatError naming the file, and the offending
    line where there is one, on input outside the event-file grammar or
    unsorted, and, after the last block, when the sidecar's
    ``n_records`` or ``sha256`` (each checked if present) does not match
    the file. Raises it naming the sidecar, before the first block, when
    that is not a JSON object or lacks a positive ``resolution_ps``.

    One I/O thread reads, hashes and parses the block after the one
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
        # Closed early, the block read ahead is dropped once read (the
        # executor waits for it), and the file is closed here.
        blocks.close()


def _read_blocks(path) -> Iterator[EventStream]:
    """The blocks of ``read_event_blocks``, read on the thread that asks."""
    path = Path(path)
    meta = read_sidecar(path)
    resolution = 125.0 if meta is None else _sidecar_resolution(path, meta)
    meta = meta or {}
    with open(path, "rb") as fh:
        head = fh.readline(len(_HEADER))  # stops after the first LF
        if head == _HEADER[:-1]:  # and the file ends there
            raise DataFormatError(f"{path}: no line break at the end of line 1")
        if head != _HEADER:
            raise DataFormatError(
                f"{path}: bad header {head!r} on line 1, expected 'detector,timestamp'"
            )
        digest, carry, lineno, previous = hashlib.sha256(head), b"", 2, 0
        while True:
            block = fh.read(_READ_BLOCK)
            digest.update(block)
            data = carry + block
            end = data.rfind(b"\n") + 1
            codes, ticks = _parse_block(path, np.frombuffer(data, np.uint8, end), lineno, previous)
            lineno, previous = lineno + ticks.size, int(ticks[-1]) if ticks.size else previous
            carry = data[end:]
            if len(carry) > _MAX_DIGITS + 2:  # longer than any record line
                raise _bad_line(path, carry, lineno, previous)
            if carry and not block:
                raise DataFormatError(f"{path}: no line break at the end of line {lineno}")
            yield EventStream(codes, ticks, resolution)
            if not block:
                break
    n_records = lineno - 2
    if "n_records" in meta and meta["n_records"] != n_records:
        raise DataFormatError(
            f"{path}: {n_records} records but the sidecar says {meta['n_records']}"
        )
    if "sha256" in meta and meta["sha256"] != digest.hexdigest():
        raise DataFormatError(f"{path}: contents do not match the sidecar's sha256")


def _parse_block(path: Path, lines: np.ndarray, lineno: int, previous: int) -> tuple:
    """Codes and ticks of `lines`, the uint8 bytes of whole lines from line
    `lineno` on, after tick `previous`; DataFormatError at the first bad line."""
    ends = np.flatnonzero(lines == ord("\n"))
    lengths = np.diff(ends, prepend=-1) - 1
    widths = lengths - 2  # the digits of a record
    # Sorted records have non-decreasing digit counts, so they fall into at
    # most _MAX_DIGITS runs of fixed-width rows. The parse stops at the
    # first line that breaks this: it is not a record or is out of order.
    broken = (widths < 1) | (widths > _MAX_DIGITS)
    broken[1:] |= widths[1:] < widths[:-1]
    n = int(broken.argmax()) if broken.any() else widths.size
    codes, ticks, good = np.empty(n, np.uint8), np.empty(n, np.uint64), np.empty(n, bool)
    for lo, hi, k in _width_runs(widths[:n]):
        rows = lines[ends[lo] - lengths[lo] : ends[hi - 1] + 1].reshape(hi - lo, k + 3)
        codes[lo:hi] = _CODE_OF_BYTE[rows[:, 0]]
        first = rows[:, 2] - ord("0")  # a byte below '0' wraps past 9
        value = ticks[lo:hi]  # 19 digits stay below 2**64: exact in uint64
        value[:] = first
        largest = first.copy()  # the largest digit of each row so far
        for j in range(3, k + 2):
            digit = rows[:, j] - ord("0")
            np.maximum(largest, digit, out=largest)
            value *= 10
            value += digit
        ok = (codes[lo:hi] <= DET_B) & (rows[:, 1] == ord(",")) & (largest <= 9)
        good[lo:hi] = ok & ((first > 0) | (k == 1)) & (value <= np.uint64(_INT64_MAX))
    ticks = ticks.view(np.int64)
    # a bad line's tick can only misjudge the order of the line after it
    good &= np.diff(ticks, prepend=previous) >= 0
    n = n if good.all() else int(good.argmin())
    if n < widths.size:
        line = lines[ends[n] - lengths[n] : ends[n]].tobytes()
        raise _bad_line(path, line, lineno + n, int(ticks[n - 1]) if n else previous)
    return codes, ticks


def _bad_line(path: Path, line: bytes, lineno: int, previous: int) -> DataFormatError:
    """The error for line `lineno` (or its start), found bad by the block parse."""
    label, comma, digits = line.partition(b",")
    decimal = digits.isdigit() and (digits == b"0" or not digits.startswith(b"0"))
    if not (label.decode("latin-1") in DETECTOR_LABELS and comma and decimal):
        return DataFormatError(
            f"{path}: {line[:40]!r} on line {lineno} is not a record 'T|A|B,<ticks>'"
        )
    if len(digits) > _MAX_DIGITS or int(digits) > _INT64_MAX:
        return DataFormatError(f"{path}: timestamp exceeds int64 on line {lineno}")
    return DataFormatError(
        f"{path}: timestamp {int(digits)} on line {lineno} is earlier than the "
        f"record before it ({previous}); records must be sorted by timestamp"
    )
