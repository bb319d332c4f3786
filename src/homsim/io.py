"""Event-stream container plus the CSV / JSON-sidecar file format.

An event file is plain CSV with the header line ``detector,timestamp``,
one record per line, detector in {T, A, B} and the timestamp an integer
count of resolution ticks since the start of the run. Records are sorted
by timestamp and timestamps are non-negative and fit in int64. A JSON
sidecar (same path with a .json suffix) echoes the resolution, the full
run configuration and its hash, the record count ``n_records`` and the
``sha256`` of the CSV bytes.

``read_events`` raises ``DataFormatError`` naming the file and physical
line for a bad header, a wrong field count, an unknown detector label, a
non-integer, negative or out-of-range timestamp, a record out of
timestamp order, a line break inside a quoted field, undecodable bytes
or a field beyond the csv module's size limit; naming the file when the
sidecar's record count or digest disagrees with the CSV; and naming the
sidecar when it is not a JSON object or a resolution it must supply is
missing or not a positive number. ``_parse_lines`` is the definition of the format; the vectorised
fast path accepts a subset of it (the canonical spelling that
``write_events`` produces) and hands everything else to it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
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
_HEADER_LINE = ",".join(EVENT_HEADER) + "\n"
_NO_CODE = 255  # marks a label outside DETECTOR_LABELS in the fast path
_INT64_MAX = np.iinfo(np.int64).max
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


def _csv_text(stream: EventStream) -> Iterator[str]:
    """The event file's text: the header, then one string per slice of records."""
    yield _HEADER_LINE
    prefixes = tuple(f"{label}," for label in DETECTOR_LABELS)
    for lo in range(0, len(stream), _WRITE_SLICE):
        codes = stream.detectors[lo : lo + _WRITE_SLICE].tolist()
        ticks = stream.timestamps[lo : lo + _WRITE_SLICE].tolist()
        # One %-format over the whole slice beats a per-record f-string by ~30%.
        fields = [None] * (2 * len(ticks))
        fields[0::2] = map(prefixes.__getitem__, codes)
        fields[1::2] = ticks
        yield "%s%d\n" * len(ticks) % tuple(fields)


def write_events(stream: EventStream, path, metadata: dict | None = None) -> Path:
    """Write the CSV event file and its JSON sidecar; returns the CSV path."""
    path = Path(path)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for text in _csv_text(stream):
            data = text.encode("ascii")
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
    """Read a CSV event file; resolution comes from the sidecar if present.

    Raises DataFormatError naming the file, and the offending line where
    there is one, on malformed, undecodable, unsorted or negative input,
    and when the sidecar's ``n_records`` or ``sha256`` (each checked if
    present) does not match the CSV. Raises it naming the sidecar when
    that is not a JSON object or, if `resolution` is not given, lacks a
    positive ``resolution_ps``.
    """
    path = Path(path)
    meta = read_sidecar(path)
    if resolution is None:
        resolution = 125.0 if meta is None else _sidecar_resolution(path, meta)
    canonical, sha256 = _scan(path)
    parsed = _parse_fast(path) if canonical else None
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


def _scan(path: Path) -> tuple[bool, str]:
    """One pass over the file's bytes: (fast path applies, sha256 hex digest).

    The fast path needs the exact header line and no NUL byte: numpy drops
    trailing NULs from string fields, so it would read ``T\\0`` as ``T``,
    which ``_parse_lines`` rejects.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
        canonical = head in (_HEADER_LINE.encode(), _HEADER_LINE.replace("\n", "\r\n").encode())
        digest = hashlib.sha256(head)
        while block := fh.read(_READ_BLOCK):
            canonical = canonical and b"\0" not in block
            digest.update(block)
    return canonical, digest.hexdigest()


def _parse_fast(path: Path) -> tuple[np.ndarray, np.ndarray] | None:
    """Vectorised parse of the body, or None where ``_parse_lines`` must decide."""
    if path.suffix in _COMPRESSED_SUFFIXES:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a header-only file
        try:
            # U2, not U1: a U1 field would truncate "TT" to "T".
            rows = np.loadtxt(
                path, delimiter=",", dtype=[("d", "U2"), ("t", "i8")],
                ndmin=1, comments=None, skiprows=1,
            )
        except ValueError:
            return None
    labels = rows["d"]
    codes = np.full(labels.shape, _NO_CODE, dtype=np.uint8)
    for label, code in _LABEL_TO_CODE.items():
        codes[labels == label] = code
    ticks = np.ascontiguousarray(rows["t"])
    if (codes == _NO_CODE).any() or (ticks.size and ticks[0] < 0):
        return None
    if (ticks[1:] < ticks[:-1]).any():
        return None
    return codes, ticks


def _parse_lines(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Line-by-line parse: the definition of what an event file may contain.

    Fields may be padded or quoted as the csv module allows, but may not
    hold a line break, and blank lines are skipped. Raises DataFormatError
    with the physical line number of the first bad record.
    """
    codes: list[int] = []
    ticks: list[int] = []
    previous = 0
    with open(path, newline="") as fh:
        rows = _csv_rows(path, fh)
        try:
            _, header = next(rows)
        except StopIteration:
            raise DataFormatError(f"{path}: empty event file (line 1)") from None
        if [h.strip() for h in header] != list(EVENT_HEADER):
            raise DataFormatError(
                f"{path}: bad header {header!r} on line 1, expected 'detector,timestamp'"
            )
        for lineno, row in rows:
            if not row:
                continue
            if len(row) != 2:
                raise DataFormatError(f"{path}: expected 2 fields on line {lineno}")
            det, ts = row[0].strip(), row[1].strip()
            if det not in _LABEL_TO_CODE:
                raise DataFormatError(
                    f"{path}: unknown detector {det!r} on line {lineno}"
                )
            try:
                tick = int(ts)
            except ValueError:
                raise DataFormatError(
                    f"{path}: non-integer timestamp {ts!r} on line {lineno}"
                ) from None
            if tick < 0:
                raise DataFormatError(
                    f"{path}: negative timestamp {ts!r} on line {lineno}"
                )
            if tick > _INT64_MAX:
                raise DataFormatError(
                    f"{path}: timestamp {ts!r} exceeds int64 on line {lineno}"
                )
            if tick < previous:
                raise DataFormatError(
                    f"{path}: timestamp {tick} on line {lineno} is earlier than the "
                    f"record before it ({previous}); records must be sorted by timestamp"
                )
            previous = tick
            codes.append(_LABEL_TO_CODE[det])
            ticks.append(tick)
    return np.array(codes, dtype=np.uint8), np.array(ticks, dtype=np.int64)


def _csv_rows(path: Path, fh) -> Iterator[tuple[int, list[str]]]:
    """(physical line it starts on, row) for each csv row of `fh`.

    Raises DataFormatError for text the csv module cannot read (undecodable
    bytes, a field beyond its size limit) and for a field holding a line
    break: quoting allows one, but ``strip`` would hide it and the record
    would span lines.
    """
    reader = csv.reader(fh)
    start = 1
    try:
        for row in reader:
            if any("\r" in field or "\n" in field for field in row):
                raise DataFormatError(f"{path}: line break inside a field on line {start}")
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise DataFormatError(f"{path}: {exc} on line {reader.line_num}") from None
    except UnicodeDecodeError:
        # The text layer decodes ahead in blocks, so find the line itself.
        with open(path, "rb") as raw:
            lines = raw.read().splitlines()
        lineno = next(
            (n for n, line in enumerate(lines, start=1) if not _decodes(line, fh.encoding)),
            reader.line_num + 1,
        )
        raise DataFormatError(
            f"{path}: bytes that are not {fh.encoding} text on line {lineno}"
        ) from None


def _decodes(data: bytes, encoding: str) -> bool:
    try:
        data.decode(encoding)
    except UnicodeDecodeError:
        return False
    return True
