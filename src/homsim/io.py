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

``read_events`` raises ``DataFormatError`` naming the file and physical
line for a line outside the grammar (a last line without its line break
included), a timestamp beyond int64 or a record out of timestamp order;
naming the file when the sidecar's record count or digest disagrees
with the file; and naming the sidecar when it is not a JSON object or a
resolution it must supply is missing or not a positive number.
``_parse_lines`` is the definition of the grammar; the vectorised fast
path returns the same arrays for every file the grammar accepts and
hands every other file to it.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import DataFormatError

DET_T, DET_A, DET_B = 0, 1, 2
DETECTOR_LABELS = ("T", "A", "B")
_LABEL_TO_CODE = {"T": DET_T, "A": DET_A, "B": DET_B}

EVENT_HEADER = ("detector", "timestamp")
_HEADER = (",".join(EVENT_HEADER) + "\n").encode()
_RECORD = re.compile(rb"([TAB]),(0|[1-9][0-9]*)")
_NO_CODE = 255  # marks a label outside DETECTOR_LABELS in the fast path
_INT64_MAX = np.iinfo(np.int64).max
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)
# Records formatted per write: big enough to amortise the format and the
# write call, small enough that the .tolist() copies stay a few MB.
_WRITE_SLICE = 1 << 15
_READ_BLOCK = 1 << 20
# np.loadtxt opens paths with these suffixes through a decompressor.
_COMPRESSED_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")


class DetectionRecord(NamedTuple):
    detector: str
    timestamp: int


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

    def labels(self) -> np.ndarray:
        return np.array(DETECTOR_LABELS)[self.detectors]

    def is_sorted(self) -> bool:
        return bool(np.all(np.diff(self.timestamps) >= 0))

    def records(self) -> Iterator[DetectionRecord]:
        for code, tick in zip(self.detectors, self.timestamps):
            yield DetectionRecord(DETECTOR_LABELS[code], int(tick))

    @classmethod
    def from_records(
        cls, records: Iterable[tuple[str, int]], resolution: float = 125.0
    ) -> "EventStream":
        """Build a stream from (label, ticks) pairs, e.g. [("T", 0), ("A", 400)]."""
        pairs = list(records)
        codes = np.array([_LABEL_TO_CODE[label] for label, _ in pairs], dtype=np.uint8)
        ticks = np.array([tick for _, tick in pairs], dtype=np.int64)
        return cls(codes, ticks, resolution)


def config_hash(mapping: dict) -> str:
    """Short stable hash of a configuration mapping, for file provenance."""
    canon = json.dumps(mapping, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def sidecar_path(events_path) -> Path:
    return Path(events_path).with_suffix(".json")


def _file_bytes(stream: EventStream) -> Iterator[bytes]:
    """The event file: the header line, then the records one slice at a time."""
    yield _HEADER
    prefixes = tuple(f"{label}," for label in DETECTOR_LABELS)
    for lo in range(0, len(stream), _WRITE_SLICE):
        codes = stream.detectors[lo : lo + _WRITE_SLICE].tolist()
        ticks = stream.timestamps[lo : lo + _WRITE_SLICE].tolist()
        # One %-format over the whole slice beats a per-record f-string by ~30%.
        fields = [None] * (2 * len(ticks))
        fields[0::2] = map(prefixes.__getitem__, codes)
        fields[1::2] = ticks
        yield ("%s%d\n" * len(ticks) % tuple(fields)).encode("ascii")


def write_events(stream: EventStream, path, metadata: dict | None = None) -> Path:
    """Write the CSV event file and its JSON sidecar; returns the CSV path."""
    path = Path(path)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for data in _file_bytes(stream):
            digest.update(data)
            fh.write(data)
    sidecar = {"resolution_ps": stream.resolution, "n_records": len(stream)}
    if metadata:
        sidecar.update(metadata)
    sidecar.setdefault("config_hash", config_hash(sidecar))
    sidecar["sha256"] = digest.hexdigest()
    write_json(sidecar, sidecar_path(path))
    return path


def write_json(payload: dict, path) -> Path:
    """Write `payload` as indented, key-sorted JSON plus a final newline."""
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def read_sidecar(events_path) -> dict | None:
    """The sidecar's contents, or None when there is no sidecar.

    Raises DataFormatError naming the sidecar if it is not a JSON object.
    """
    p = sidecar_path(events_path)
    if not p.exists():
        return None
    with open(p) as fh:
        try:
            meta = json.load(fh)
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


def read_events(path, resolution: float | None = None) -> EventStream:
    """Read an event file; resolution comes from the sidecar if present.

    Raises DataFormatError naming the file, and the offending line where
    there is one, on input outside the event-file grammar or unsorted,
    and when the sidecar's ``n_records`` or ``sha256`` (each checked if
    present) does not match the file. Raises it naming the sidecar when
    that is not a JSON object or, if `resolution` is not given, lacks a
    positive ``resolution_ps``.
    """
    path = Path(path)
    meta = read_sidecar(path)
    if resolution is None:
        resolution = 125.0 if meta is None else _sidecar_resolution(path, meta)
    sha256, size, lf_lines = _scan(path)
    parsed = _parse_fast(path, size) if lf_lines else None
    codes, ticks = parsed if parsed is not None else _parse_lines(path)
    if meta:
        if "n_records" in meta and meta["n_records"] != ticks.size:
            raise DataFormatError(
                f"{path}: {ticks.size} records but the sidecar says {meta['n_records']}"
            )
        if "sha256" in meta and meta["sha256"] != sha256:
            raise DataFormatError(
                f"{path}: contents do not match the sidecar's sha256"
            )
    return EventStream(codes, ticks, resolution)


def _scan(path: Path) -> tuple[str, int, bool]:
    """One pass over the file's bytes: (sha256 hex digest, byte count, lf_lines).

    ``lf_lines`` holds when the file starts with the header line, has no
    CR byte and ends in LF: then every line ``np.loadtxt`` sees ends in
    one LF byte, which the size proof in ``_parse_fast`` relies on.
    """
    with open(path, "rb") as fh:
        head = fh.read(len(_HEADER))
        digest, size, last, cr_free = hashlib.sha256(head), len(head), head, True
        while block := fh.read(_READ_BLOCK):
            cr_free = cr_free and b"\r" not in block
            digest.update(block)
            size += len(block)
            last = block
    return digest.hexdigest(), size, head == _HEADER and cr_free and last.endswith(b"\n")


def _parse_fast(path: Path, size: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Vectorised parse of the body, or None where ``_parse_lines`` must decide.

    Called only when ``_scan`` found ``lf_lines``, so every line loadtxt
    reads ends in one LF byte. The result stands only if the file is
    exactly as long as the canonical text of what was parsed. Every other
    spelling loadtxt accepts for a record is longer (padding, quotes, a
    sign, leading zeros, a NUL after the label, a blank line), so equal
    size proves the file is canonical. That needs loadtxt to refuse
    non-integer text such as ``1e3``, which older numpy only warned about.
    """
    if path.suffix in _COMPRESSED_SUFFIXES:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a header-only file
        warnings.simplefilter("error", DeprecationWarning)  # integer parsed via float
        try:
            # U2, not U1: a U1 field would truncate "TT" to "T".
            rows = np.loadtxt(
                path, delimiter=",", dtype=[("d", "U2"), ("t", "i8")],
                ndmin=1, comments=None, skiprows=1,
            )
        except (ValueError, DeprecationWarning):
            return None
    labels = rows["d"]
    codes = np.full(labels.shape, _NO_CODE, dtype=np.uint8)
    for label, code in _LABEL_TO_CODE.items():
        codes[labels == label] = code
    ticks = np.ascontiguousarray(rows["t"])
    if (codes == _NO_CODE).any() or (ticks[1:] < ticks[:-1]).any():
        return None
    # A tick has one digit plus one per power of ten at or below it; the
    # ticks are sorted, so one searchsorted counts the ticks below each
    # power. A sign lengthens a line, so a negative tick fails the check.
    digits = 19 * ticks.size - int(np.searchsorted(ticks, _POWERS_OF_TEN).sum())
    if size != len(_HEADER) + 3 * ticks.size + digits:
        return None
    return codes, ticks


def _parse_lines(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Line-by-line parse: the definition of the event-file grammar.

    Raises DataFormatError with the number of the first line that breaks it.
    """
    lines = path.read_bytes().split(b"\n")
    if lines[0] != _HEADER[:-1]:
        raise DataFormatError(
            f"{path}: bad header {lines[0][:40]!r} on line 1, expected 'detector,timestamp'"
        )
    codes, ticks, previous = [], [], 0
    for lineno, line in enumerate(lines[1:-1], start=2):
        record = _RECORD.fullmatch(line)
        if record is None:
            raise DataFormatError(
                f"{path}: {line[:40]!r} on line {lineno} is not a record 'T|A|B,<ticks>'"
            )
        digits = record[2]
        # int() refuses digit strings beyond a few thousand digits
        tick = int(digits) if len(digits) <= 19 else _INT64_MAX + 1
        if tick > _INT64_MAX:
            raise DataFormatError(f"{path}: timestamp exceeds int64 on line {lineno}")
        if tick < previous:
            raise DataFormatError(
                f"{path}: timestamp {tick} on line {lineno} is earlier than the "
                f"record before it ({previous}); records must be sorted by timestamp"
            )
        previous = tick
        codes.append(_LABEL_TO_CODE[record[1].decode()])
        ticks.append(tick)
    if lines[-1]:
        raise DataFormatError(f"{path}: no line break at the end of line {len(lines)}")
    return np.array(codes, dtype=np.uint8), np.array(ticks, dtype=np.int64)
