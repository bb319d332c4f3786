import hashlib
import json
import re
import struct
import threading

import numpy as np
import pytest
from helpers import event_file, frame, stream_from_records
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homsim import DataFormatError, EventStream, io, read_events, write_events
from homsim.io import (
    _FRAME,
    _HEADER,
    DET_A,
    DET_B,
    DET_T,
    config_hash,
    read_sidecar,
    sidecar_path,
    write_json,
    write_table,
)


def sample_stream():
    return stream_from_records(
        [("T", 0), ("A", 400), ("B", 480), ("T", 8000), ("A", 8100)]
    )


def test_from_records_and_labels():
    s = sample_stream()
    assert len(s) == 5
    assert list(s.detectors) == [DET_T, DET_A, DET_B, DET_T, DET_A]
    assert list(s.timestamps) == [0, 400, 480, 8000, 8100]
    assert s.is_sorted()
    assert not EventStream([0, 1], [10, 5 - 2**63]).is_sorted()


@pytest.mark.parametrize("detectors, timestamps, match", [
    ([0, 1], [10], "must match in length"),
    ([0, 3], [10, 20], "detector codes must be 0"),
], ids=["length-mismatch", "bad-detector-code"])
def test_bad_stream_arrays_rejected(detectors, timestamps, match):
    with pytest.raises(ValueError, match=match):
        EventStream(detectors, timestamps)


def test_roundtrip_with_sidecar(tmp_path):
    s = sample_stream()
    path = tmp_path / "events.csv"
    write_events(s, path, metadata={"config": {"seed": 3}, "config_hash": "abc"})
    meta = read_sidecar(path)
    assert meta["config_hash"] == "abc"
    assert meta["resolution_ps"] == 125.0
    back = read_events(path)
    assert np.array_equal(back.detectors, s.detectors)
    assert np.array_equal(back.timestamps, s.timestamps)
    assert back.resolution == 125.0
    # each frame is read into a buffer of its own: its arrays are writable
    for block in io.read_event_blocks(path):
        assert block.detectors.flags.writeable and block.timestamps.flags.writeable


def test_default_config_hash_is_the_configs(tmp_path):
    # a config's hash does not depend on the records: the same config gives
    # the same provenance for streams of any length
    config, s = {"seed": 3, "n_triggers": 10}, sample_stream()
    for n in (3, 5):
        part = EventStream(s.detectors[:n], s.timestamps[:n], s.resolution)
        path = write_events(part, tmp_path / f"{n}.csv", metadata={"config": config})
        assert read_sidecar(path)["config_hash"] == config_hash(config)
    # without a config, the hash is the sidecar's own
    path = write_events(sample_stream(), tmp_path / "bare.csv")
    meta = read_sidecar(path)
    assert meta["config_hash"] == config_hash(
        {"resolution_ps": meta["resolution_ps"], "n_records": meta["n_records"]}
    )


@pytest.mark.parametrize("field, value", [
    ("resolution_ps", 250.0), ("n_records", 99), ("sha256", "0" * 64),
])
def test_metadata_cannot_overwrite_the_sidecar_fields(tmp_path, field, value):
    # a resolution_ps of 250 on a 125 ps stream would double every time read back
    with pytest.raises(ValueError, match=field):
        write_events(sample_stream(), tmp_path / "events.csv", metadata={field: value})
    assert list(tmp_path.iterdir()) == []


def test_read_without_sidecar_defaults_resolution(tmp_path):
    path = event_file(tmp_path / "e.csv", frame([("T", 0), ("A", 10)]))
    s = read_events(path)
    assert s.resolution == 125.0
    assert len(s) == 2


# Event-file errors name the file and, for a frame or record at fault, its
# index from 0: the record's, or that of the frame's first record.

def test_bad_header_reports_line(tmp_path):
    # the header is the one place without a record index: the error names
    # the format expected
    path = event_file(tmp_path / "e.csv", frame([("T", 0)]), header=b"det,time\nT,0\n")
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: .*format 1"):
        read_events(path)


def test_bad_detector_reports_line(tmp_path):
    path = event_file(tmp_path / "e.csv", frame([("T", 0), ("A", 10), (3, 55)]))
    with pytest.raises(DataFormatError, match="detector code 3 at record 2,"):
        read_events(path)


def test_bad_timestamp_reports_line(tmp_path):
    path = event_file(tmp_path / "e.csv", frame([("T", -5)]))
    with pytest.raises(DataFormatError, match="tick -5 at record 0 is negative"):
        read_events(path)


def test_wrong_field_count_reports_line(tmp_path):
    # a count of 3 over two records: the frame runs past the end of the file
    path = event_file(tmp_path / "e.csv", frame([("T", 0)]), frame([("A", 5), ("B", 9)], count=3))
    with pytest.raises(DataFormatError, match="the frame at record 1 is cut short"):
        read_events(path)


def test_config_hash_stable_and_order_free():
    h1 = config_hash({"a": 1, "b": 2.5})
    h2 = config_hash({"b": 2.5, "a": 1})
    assert h1 == h2
    assert len(h1) == 16
    assert h1 != config_hash({"a": 1, "b": 2.6})


def test_sidecar_path():
    assert str(sidecar_path("runs/events.csv")).endswith("runs/events.json")


def test_write_json_layout(tmp_path):
    # the one layout of the event sidecar, visibility.json and dip.json
    path = write_json({"b": [1, 2.5], "a": {"d": None, "c": "x"}}, tmp_path / "out.json")
    assert path.read_text() == (
        '{\n  "a": {\n    "c": "x",\n    "d": null\n  },\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
    )


def test_write_table_layout(tmp_path):
    # the one layout of oracle.csv, histogram_*.csv and dip.csv
    path = write_table(
        tmp_path / "out.csv", {"config_hash": "beef", "n_triggers": 4},
        ("bin_center_ns", "counts", "value"), [("-10", 0, "0"), ("0", 1, "0.25")],
    )
    assert path.read_bytes() == (
        b"# config_hash=beef\n# n_triggers=4\nbin_center_ns,counts,value\n-10,0,0\n0,1,0.25\n"
    )


PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def reference_write(stream, path, frame_size=_FRAME):
    """The event file of `stream`, packed record by record with struct."""
    records = list(zip(stream.detectors.tolist(), stream.timestamps.tolist()))
    with open(path, "wb") as fh:
        fh.write(b"\x89HOMSIM\n" + struct.pack("<q", 1))
        for start in range(0, len(records), frame_size):
            part = records[start : start + frame_size]
            fh.write(struct.pack(f"<q{len(part)}q", len(part), *(t for _, t in part)))
            fh.write(struct.pack(f"{len(part)}B", *(c for c, _ in part)))


def reference_read(path, frame_size=_FRAME):
    """The event-file format, spelled out record by record with struct:
    the header, then frames of a count n in 1 .. `frame_size` and n ticks
    and n codes, each code at most 2 and each tick at least the one
    before it (0 before the first).

    Returns ("ok", codes, ticks), ("error", None) for a bad header or
    ("error", index) for the first record of a frame, or the record, at fault.
    """
    data = path.read_bytes()
    if data[:16] != b"\x89HOMSIM\n" + struct.pack("<q", 1):
        return ("error", None)
    codes, ticks, pos = [], [], 16
    while pos < len(data):
        if len(data) - pos < 8:
            return ("error", len(ticks))
        (n,) = struct.unpack_from("<q", data, pos)
        pos += 8
        if not 1 <= n <= frame_size or len(data) - pos < 9 * n:
            return ("error", len(ticks))
        frame_ticks = struct.unpack_from(f"<{n}q", data, pos)
        for code, tick in zip(data[pos + 8 * n : pos + 9 * n], frame_ticks):
            if code > 2 or tick < (ticks[-1] if ticks else 0):
                return ("error", len(ticks))
            codes.append(code)
            ticks.append(tick)
        pos += 9 * n
    return ("ok", codes, ticks)


def outcome(path):
    try:
        s = read_events(path)
    except DataFormatError as exc:
        assert str(exc).startswith(f"{path}: ")
        record = re.search(r"record (\d+)", str(exc))
        return ("error", record and int(record.group(1)))
    return ("ok", s.detectors.tolist(), s.timestamps.tolist())


@st.composite
def sorted_streams(draw, max_size=60):
    ticks = sorted(draw(st.lists(st.integers(0, 2**63 - 1), max_size=max_size)))
    codes = draw(st.lists(st.integers(0, 2), min_size=len(ticks), max_size=len(ticks)))
    resolution = draw(st.sampled_from([125.0, 62.5, 1.0]))
    return EventStream(np.array(codes), np.array(ticks), resolution)


# Counts, ticks and codes that each break, or come near breaking, one rule
# of the format; a tick is taken modulo 2**64, as ``frame`` writes it
ODD_COUNTS = [0, -1, 2**15 + 1, 2**63 - 1, -(2**63)]
ODD_TICKS = [-1, -(2**63), 2**63 - 1, 2**63, 2**64 - 1]
ODD_CODES = [3, 4, 84, 255]


@st.composite
def frame_files(draw, frame_size):
    """The bytes of an event file of frames of 1 to `frame_size` records,
    with up to three of its counts, ticks or codes made odd and perhaps a
    frame whose count disagrees with its records."""
    ticks = sorted(draw(st.lists(st.integers(0, 10**6), max_size=12)))
    records = [[draw(st.integers(0, 2)), t] for t in ticks]
    for _ in range(draw(st.integers(0, 3))):
        if records:
            record = records[draw(st.integers(0, len(records) - 1))]
            field = draw(st.integers(0, 1))
            record[field] = draw(st.sampled_from([ODD_CODES, ODD_TICKS][field]))
    frames, start = [], 0
    while start < len(records):
        size = draw(st.integers(1, frame_size))
        part = records[start : start + size]
        count = draw(st.one_of(st.just(len(part)), st.sampled_from(ODD_COUNTS + [len(part) + 1])))
        frames.append(frame(part, count))
        start += size
    return _HEADER + b"".join(frames)


@st.composite
def single_byte_mutations(draw, frame_size):
    """A canonical event file with one byte replaced, inserted or deleted."""
    ticks = sorted(draw(st.lists(st.integers(0, 10**6), max_size=8)))
    stream = EventStream(draw(st.lists(st.integers(0, 2), min_size=len(ticks),
                                       max_size=len(ticks))), ticks)
    data = bytearray(_HEADER)
    for start in range(0, len(ticks), frame_size):
        part = slice(start, start + frame_size)
        data += frame(list(zip(stream.detectors[part].tolist(), stream.timestamps[part].tolist())))
    edit = draw(st.sampled_from(["replace", "insert", "delete"]))
    pos = draw(st.integers(0, len(data) - (edit != "insert")))
    byte = draw(st.integers(0, 255))
    data[pos : pos + (edit != "insert")] = b"" if edit == "delete" else bytes([byte])
    return bytes(data)


@PROPERTY_SETTINGS
@given(stream=sorted_streams())
def test_roundtrip_matches_reference_writer(tmp_path, stream):
    path, ref = tmp_path / "events.csv", tmp_path / "reference.csv"
    write_events(stream, path)
    reference_write(stream, ref)
    assert path.read_bytes() == ref.read_bytes()
    back = read_events(path)
    assert back.detectors.dtype == np.uint8 and back.timestamps.dtype == np.int64
    assert np.array_equal(back.detectors, stream.detectors)
    assert np.array_equal(back.timestamps, stream.timestamps)
    assert back.resolution == stream.resolution


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(data=st.data(), frame_size=st.integers(1, 5))
def test_reader_accepts_and_rejects_as_reference(tmp_path, monkeypatch, data, frame_size):
    # small frames put the faults in every frame of a file and at its edges
    monkeypatch.setattr(io, "_FRAME", frame_size)
    path = tmp_path / "odd.csv"  # no sidecar
    path.write_bytes(data.draw(st.one_of(frame_files(frame_size),
                                         single_byte_mutations(frame_size))))
    assert outcome(path) == reference_read(path, frame_size)


def test_every_digit_count_round_trips(tmp_path, monkeypatch):
    # ticks of every decimal digit count, at and beside each power of ten,
    # and the ends of int64, in one frame or in frames of 1 to 22 records
    ticks = sorted({0, 2**63 - 1} | {10**k + d for k in range(1, 19) for d in (-1, 0, 1)})
    stream = EventStream(np.arange(len(ticks)) % 3, ticks)
    for frame_size in (1, 7, 22, _FRAME):
        monkeypatch.setattr(io, "_FRAME", frame_size)
        path, ref = tmp_path / "events.csv", tmp_path / "reference.csv"
        write_events(stream, path)
        reference_write(stream, ref, frame_size)
        assert path.read_bytes() == ref.read_bytes()
        back = read_events(path)
        assert back.detectors.tolist() == stream.detectors.tolist()
        assert back.timestamps.tolist() == ticks


@PROPERTY_SETTINGS
@given(
    ticks=st.lists(st.integers(0, 2**63 - 1), max_size=40).map(sorted),
    codes=st.lists(st.integers(0, 2), min_size=40, max_size=40),
    frame_size=st.integers(1, 7),
    cuts=st.lists(st.integers(0, 40), max_size=4).map(sorted),
)
def test_writer_matches_reference_across_slice_and_width_edges(
    tmp_path, monkeypatch, ticks, codes, frame_size, cuts
):
    # chunks cut anywhere, frames of a few records: the frames are the
    # reference's, whatever the chunks' edges
    monkeypatch.setattr(io, "_FRAME", frame_size)
    stream = EventStream(codes[: len(ticks)], np.array(ticks, dtype=np.int64))
    edges = [0, *(min(c, len(ticks)) for c in cuts), len(ticks)]
    chunks = [EventStream(stream.detectors[lo:hi], stream.timestamps[lo:hi])
              for lo, hi in zip(edges, edges[1:])]
    path, ref = tmp_path / "events.csv", tmp_path / "reference.csv"
    write_events(chunks, path)
    reference_write(stream, ref, frame_size)
    assert path.read_bytes() == ref.read_bytes()
    assert read_sidecar(path)["sha256"] == hashlib.sha256(ref.read_bytes()).hexdigest()


def test_empty_stream_writes_header_only(tmp_path):
    path = write_events(EventStream([], []), tmp_path / "events.csv")
    assert path.read_bytes() == _HEADER
    meta = read_sidecar(path)
    assert meta["n_records"] == 0
    assert meta["sha256"] == hashlib.sha256(_HEADER).hexdigest()
    assert len(read_events(path)) == 0


@pytest.mark.parametrize("ticks", [[5, 3], [-5, 0], [10, 5 - 2**63]])
def test_writer_refuses_what_the_reader_rejects(tmp_path, ticks):
    path = tmp_path / "events.csv"
    with pytest.raises(ValueError, match="timestamps"):
        write_events(EventStream([0, 1], ticks), path)
    assert list(tmp_path.iterdir()) == []


def test_chunked_write_equals_one_stream(tmp_path):
    n = 6 * _FRAME + 7
    rng = np.random.default_rng(6)
    stream = EventStream(rng.integers(0, 3, n), np.sort(rng.integers(0, 10**12, n)), 62.5)
    # Empty chunks; a chunk of 1 record, then one of 4999, too short to
    # complete the frame carried into it; one that completes it and leaves
    # 3; one that completes it exactly; two whole frames with nothing
    # carried; and one that completes the frame carried into it, spans a
    # whole frame more and leaves 7 for the last.
    cuts = [0, 0, 1, 5000, 5000, _FRAME + 3, 2 * _FRAME, 4 * _FRAME, 4 * _FRAME + 10, n]
    chunks = (
        EventStream(stream.detectors[lo:hi], stream.timestamps[lo:hi], stream.resolution)
        for lo, hi in zip(cuts, cuts[1:])
    )
    whole = write_events(stream, tmp_path / "whole.csv", metadata={"config_hash": "abc"})
    chunked = write_events(chunks, tmp_path / "chunked.csv", metadata={"config_hash": "abc"})
    assert chunked.read_bytes() == whole.read_bytes()
    assert sidecar_path(chunked).read_bytes() == sidecar_path(whole).read_bytes()


def _chunks_then_failure():
    yield EventStream([0, 1], [10, 20])
    raise RuntimeError("the chunk source failed")


@pytest.mark.parametrize("chunks, error, match", [
    ([EventStream([0, 1], [10, 20]), EventStream([0, 2], [15, 30])], ValueError, "timestamps"),
    ([EventStream([0], [10]), EventStream([], []), EventStream([1], [9])], ValueError,
     "timestamps"),
    ([EventStream([0], [10]), EventStream([1], [20], 62.5)], ValueError, "one resolution"),
    ([], ValueError, "no chunk"),
    (_chunks_then_failure(), RuntimeError, "chunk source"),
], ids=["unsorted-seam", "unsorted-seam-after-empty-chunk", "mixed-resolutions", "no-chunk",
        "failing-source"])
def test_writer_refuses_bad_chunks_and_leaves_no_file(tmp_path, chunks, error, match):
    path = tmp_path / "events.csv"
    path.write_text("an earlier run")
    sidecar_path(path).write_text("{}")
    with pytest.raises(error, match=match):
        write_events(iter(chunks), path)
    assert list(tmp_path.iterdir()) == []


def frame_counts(path):
    """The record count of each frame of the event file at `path`."""
    data, pos, counts = path.read_bytes(), len(_HEADER), []
    while pos < len(data):
        counts.append(int.from_bytes(data[pos : pos + 8], "little"))
        pos += 8 + 9 * counts[-1]
    return counts


def test_writer_slices_are_seamless(tmp_path):
    # one stream of three frames and a bit: frames of at most _FRAME records
    n = 3 * _FRAME + 7
    rng = np.random.default_rng(5)
    stream = EventStream(rng.integers(0, 3, n), np.sort(rng.integers(0, 10**12, n)))
    path, ref = tmp_path / "events.csv", tmp_path / "reference.csv"
    write_events(stream, path)
    reference_write(stream, ref)
    assert path.read_bytes() == ref.read_bytes()
    assert frame_counts(path) == [_FRAME] * 3 + [7]
    back = read_events(path)
    assert np.array_equal(back.timestamps, stream.timestamps)
    assert np.array_equal(back.detectors, stream.detectors)


FRAME_FAULT = "the frame at record"
CUT = "is cut short"
BAD_COUNT = "has a record count of"
BAD_CODE = "detector code"
NEGATIVE = "is negative"
OUT_OF_ORDER = "is earlier than the record before it"
OK_FRAME = frame([("T", 0), ("A", 5), ("B", 9)])


@pytest.mark.parametrize("frames, record, kind", [
    ([OK_FRAME, frame([("T", 10)], count=0)], 3, f"{FRAME_FAULT} 3 {BAD_COUNT} 0,"),
    ([OK_FRAME, frame([("T", 10)], count=-1)], 3, f"{FRAME_FAULT} 3 {BAD_COUNT} -1,"),
    ([frame([("T", 10)], count=_FRAME + 1)], 0, f"{FRAME_FAULT} 0 {BAD_COUNT} 32769,"),
    ([OK_FRAME, frame([("T", 10)], count=2)], 3, f"{FRAME_FAULT} 3 {CUT}"),
    ([frame([("T", 10)], count=_FRAME)], 0, f"{FRAME_FAULT} 0 {CUT}"),
    ([OK_FRAME, frame([("T", 10)])[:-1]], 3, f"{FRAME_FAULT} 3 {CUT}"),
    ([OK_FRAME, b"\x01\x00\x00"], 3, f"{FRAME_FAULT} 3 {CUT} in its record count"),
    ([frame([("T", 0), ("A", 5), (3, 9)])], 2, f"{BAD_CODE} 3 at record 2,"),
    ([OK_FRAME, frame([(255, 10)])], 3, f"{BAD_CODE} 255 at record 3,"),
    ([frame([("T", 10), ("A", 12), ("B", 11)])], 2, f"tick 11 at record 2 {OUT_OF_ORDER} (12)"),
    ([OK_FRAME, frame([("T", 8)])], 3, f"tick 8 at record 3 {OUT_OF_ORDER} (9)"),
    ([OK_FRAME, frame([("T", 2**63)])], 3, f"tick {-2**63} at record 3 {OUT_OF_ORDER} (9)"),
    ([frame([("T", -5), ("A", 0)])], 0, f"tick -5 at record 0 {NEGATIVE}"),
    ([frame([("T", 2**64 - 1)])], 0, f"tick -1 at record 0 {NEGATIVE}"),
], ids=["count-0", "count-negative", "count-above-frame", "count-past-the-end",
        "count-of-a-whole-frame-past-the-end", "frame-cut", "count-cut", "code-3",
        "code-255-in-frame-2", "unsorted-in-frame", "unsorted-across-frames",
        "tick-2**63-across-frames", "negative-first-tick", "tick-2**64-1-first"])
def test_reader_rejects_with_record(tmp_path, frames, record, kind):
    path = event_file(tmp_path / "e.csv", *frames)
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: {re.escape(kind)}"):
        read_events(path)
    assert reference_read(path) == ("error", record)


def test_header_only_file_reads_empty(tmp_path):
    path = event_file(tmp_path / "e.csv")
    s = read_events(path)
    assert len(s) == 0 and s.resolution == 125.0


# header-only files of the 0.2.0 text layout, its own among them, and of the
# binary one cut short
@pytest.mark.parametrize("data", [
    b"detector,timestamp\n", b"detector , timestamp\r\n", b"detector,timestamp\n\n\r\n",
    _HEADER[:-1], _HEADER[:8], b"",
], ids=["detector,timestamp\n", "detector , timestamp\r\n", "detector,timestamp\n\n\r\n",
        "header-cut", "magic-only", "empty"])
def test_header_only_spellings_rejected(tmp_path, data):
    path = tmp_path / "e.csv"
    path.write_bytes(data)
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: .*format 1"):
        read_events(path)


# Files exactly as long as the event file of T,0 and A,5 in two frames:
# a reader that only counted bytes would take them. One byte of the magic
# changed; its LF turned into a lone CR, as a text-mode copy can; an empty
# frame ("blank line") inserted and the last 8 bytes cut ("no final
# break"); and the last byte, the code of A, a CR.
SAME_SIZE = _HEADER + frame([("T", 0)]) + frame([("A", 5)])
SAME_SIZE_SPELLINGS = [
    (b"\x89HOMSIN\n" + SAME_SIZE[8:], "format 1"),
    (SAME_SIZE.replace(b"\n", b"\r", 1), "format 1"),
    (SAME_SIZE[:33] + bytes(8) + SAME_SIZE[33:-8], f"{FRAME_FAULT} 1 {BAD_COUNT} 0,"),
    (SAME_SIZE[:-1] + b"\r", f"{BAD_CODE} 13 at record 1,"),
]


@pytest.mark.parametrize("data, where", SAME_SIZE_SPELLINGS,
                         ids=["same-length-header", "lone-carriage-return",
                              "blank-line-and-no-final-break", "carriage-return-at-end"])
def test_same_size_spellings_rejected(tmp_path, data, where):
    assert len(data) == len(SAME_SIZE)
    path = tmp_path / "e.csv"
    path.write_bytes(data)
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: .*{re.escape(where)}"):
        read_events(path)


# Near-canonical spellings of the one-frame file of T,0 / A,50 / B,60, each
# of a length a reader that only counted bytes might take: another magic,
# another version, a text-mode copy of the header, a big-endian count,
# int32 ticks, and a file of the 0.2.0 text format
CANONICAL = _HEADER + frame([("T", 0), ("A", 50), ("B", 60)])
RARE_SPELLINGS = [
    (b"\x89HOMSIN\n" + CANONICAL[8:], None),
    (CANONICAL[:8] + (2).to_bytes(8, "little") + CANONICAL[16:], None),
    (CANONICAL.replace(b"\n", b"\r\n", 1), None),
    (CANONICAL[:16] + (3).to_bytes(8, "big") + CANONICAL[24:], 0),
    (CANONICAL[:24] + np.array([0, 50, 60], "<i4").tobytes() + CANONICAL[-3:], 0),
    (b"detector,timestamp\nT,0\nA,50\nB,60\n", None),
]


@pytest.mark.parametrize("name", ["e.csv", "e.gz", "e.xz"])
def test_rare_spellings_rejected(tmp_path, name):
    path = tmp_path / name
    for data, record in RARE_SPELLINGS:
        path.write_bytes(data)
        where = "format 1" if record is None else f"record {record}"
        with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: .*{where}"):
            read_events(path)


def test_file_cut_mid_record_fails_on_last_line(tmp_path, monkeypatch):
    # frames of two records: the cut falls in the last frame, of record 4
    monkeypatch.setattr(io, "_FRAME", 2)
    path = write_events(sample_stream(), tmp_path / "events.csv")
    sidecar_path(path).unlink()
    path.write_bytes(path.read_bytes()[:-1])
    expected = f"{path}: the frame at record 4 is cut short: its 1 records take 9 bytes, 8 are left"
    with pytest.raises(DataFormatError, match=re.escape(expected)):
        read_events(path)


class TestSidecarIntegrity:
    def written(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events(sample_stream(), path)
        return path

    def test_digest_stored(self, tmp_path):
        path = self.written(tmp_path)
        meta = read_sidecar(path)
        assert meta["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert meta["n_records"] == 5

    def test_truncated_file_rejected(self, tmp_path, monkeypatch):
        # cut at the edge of its last frame, of one record
        monkeypatch.setattr(io, "_FRAME", 2)
        path = self.written(tmp_path)
        path.write_bytes(path.read_bytes()[: -(8 + 9)])
        expected = f"{path}: 4 records but the sidecar says 5"
        with pytest.raises(DataFormatError, match=re.escape(expected)):
            read_events(path)

    def test_edited_record_rejected(self, tmp_path):
        path = self.written(tmp_path)
        data = path.read_bytes()
        tick_400 = (400).to_bytes(8, "little")
        path.write_bytes(data.replace(tick_400, (401).to_bytes(8, "little")))
        assert path.read_bytes() != data
        with pytest.raises(DataFormatError, match="sha256"):
            read_events(path)

    def test_sidecar_without_digest_still_reads(self, tmp_path):
        path = self.written(tmp_path)
        meta = read_sidecar(path)
        del meta["sha256"]
        sidecar_path(path).write_text(json.dumps(meta))
        assert np.array_equal(read_events(path).timestamps, sample_stream().timestamps)

    def test_corrupt_sidecar_rejected(self, tmp_path):
        path = self.written(tmp_path)
        sidecar_path(path).write_text("{not json")
        with pytest.raises(DataFormatError, match="sidecar"):
            read_events(path)

    def test_directory_sidecar_rejected(self, tmp_path):
        path = self.written(tmp_path)
        sidecar_path(path).unlink()
        sidecar_path(path).mkdir()
        with pytest.raises(DataFormatError, match=re.escape(f"{sidecar_path(path)}: cannot read")):
            read_events(path)

    @pytest.mark.parametrize("sidecar", [
        [1], "x", 5, None,  # not a JSON object
        {"n_records": 5}, {},  # no resolution_ps
        {"resolution_ps": 0}, {"resolution_ps": -125.0}, {"resolution_ps": "125"},
        {"resolution_ps": True}, {"resolution_ps": float("nan")},
    ], ids=["list", "string", "number", "null", "no-resolution", "empty", "zero-resolution",
            "negative-resolution", "text-resolution", "bool-resolution", "nan-resolution"])
    def test_unusable_sidecar_rejected(self, tmp_path, sidecar):
        path = self.written(tmp_path)
        sidecar_path(path).write_text(json.dumps(sidecar))
        with pytest.raises(DataFormatError, match=re.escape(f"{sidecar_path(path)}: ")):
            read_events(path)


class TestIOThreads:
    """Each open event file has one I/O thread; none outlives the call or
    the iterator, and errors reach the caller as the serial loop raised
    them."""

    @pytest.fixture(autouse=True)
    def no_thread_left(self):
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    @staticmethod
    def chunks(fail_after=None):
        for k in range(3):
            if k == fail_after:
                raise RuntimeError("the chunk source failed")
            yield EventStream([0, 1], [10 * k, 10 * k + 5])

    @pytest.mark.parametrize("fail_after, writer_fails, error", [
        (2, False, "chunk source"),
        (None, True, "disk full"),
        (1, True, "disk full"),  # the first chunk's write fails before the source does
    ], ids=["source-fails", "writer-fails", "writer-fails-first"])
    def test_write_errors_propagate_and_leave_no_file(
        self, tmp_path, monkeypatch, fail_after, writer_fails, error
    ):
        threads = []

        def failing_write_frames(fh, digest, codes, ticks):
            threads.append(threading.current_thread())
            raise OSError("disk full")

        if writer_fails:
            monkeypatch.setattr(io, "_write_frames", failing_write_frames)
        with pytest.raises((RuntimeError, OSError), match=error):
            write_events(self.chunks(fail_after), tmp_path / "events.csv")
        assert list(tmp_path.iterdir()) == []
        assert len(threads) == writer_fails and threading.main_thread() not in threads

    @staticmethod
    def multi_frame_file(tmp_path, monkeypatch, n=100, bad=None):
        """An event file of `n` T records, ticks 1000 on, in frames of 10
        records; record `bad` (if given) has the code 3."""
        monkeypatch.setattr(io, "_FRAME", 10)
        path = tmp_path / "events.csv"
        write_events(EventStream(np.zeros(n), 1000 + np.arange(n)), path)
        if bad is not None:
            data = bytearray(path.read_bytes())
            codes = len(_HEADER) + bad // 10 * (8 + 9 * 10) + 8 + 8 * 10  # of its frame
            data[codes + bad % 10] = 3
            path.write_bytes(data)
        return path

    def test_close_after_the_first_block_returns_promptly(self, tmp_path, monkeypatch):
        path = self.multi_frame_file(tmp_path, monkeypatch)
        checked = []
        check = io._check_frame
        monkeypatch.setattr(io, "_check_frame", lambda *a: checked.append(1) or check(*a))
        blocks = io.read_event_blocks(path)
        assert len(next(blocks)) == 10
        blocks.close()
        assert len(checked) <= 2  # the frame handed out and the one read ahead

    def test_bad_line_in_block_3_after_blocks_0_to_2(self, tmp_path, monkeypatch):
        path = self.multi_frame_file(tmp_path, monkeypatch, bad=35)
        for read in (io.read_event_blocks, io._read_blocks):  # threaded, then serial
            seen = []
            with pytest.raises(DataFormatError) as caught:
                for block in read(path):
                    seen.append(block.timestamps)
            assert [list(t) for t in seen] == [list(range(1000 + k, 1010 + k)) for k in (0, 10, 20)]
            expected = f"{path}: detector code 3 at record 35, expected 0 (T), 1 (A) or 2 (B)"
            assert str(caught.value) == expected

    @pytest.mark.parametrize("field, value, message", [
        ("n_records", 99, "100 records but the sidecar says 99"),
        ("sha256", "0" * 64, "contents do not match the sidecar's sha256"),
    ])
    def test_sidecar_mismatch_raised_after_the_last_block(
        self, tmp_path, monkeypatch, field, value, message
    ):
        path = self.multi_frame_file(tmp_path, monkeypatch)
        meta = read_sidecar(path)
        meta[field] = value
        sidecar_path(path).write_text(json.dumps(meta))
        blocks = io.read_event_blocks(path)
        sizes = [len(next(blocks)) for _ in range(11)]
        assert sizes == [10] * 10 + [0]  # every frame, then the empty last stream
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: {message}")):
            next(blocks)
