import csv
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homsim import DataFormatError, EventStream, read_events, write_events
from homsim.io import (
    _LABEL_TO_CODE,
    _WRITE_SLICE,
    DETECTOR_LABELS,
    EVENT_HEADER,
    config_hash,
    read_sidecar,
    sidecar_path,
    write_json,
)


def sample_stream():
    return EventStream.from_records(
        [("T", 0), ("A", 400), ("B", 480), ("T", 8000), ("A", 8100)]
    )


def test_from_records_and_labels():
    s = sample_stream()
    assert len(s) == 5
    assert list(s.labels()) == ["T", "A", "B", "T", "A"]
    assert s.is_sorted()
    recs = list(s.records())
    assert recs[1].detector == "A" and recs[1].timestamp == 400


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


def test_read_without_sidecar_defaults_resolution(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("detector,timestamp\nT,0\nA,10\n")
    s = read_events(path)
    assert s.resolution == 125.0
    assert len(s) == 2


def test_bad_header_reports_line(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("det,time\nT,0\n")
    with pytest.raises(DataFormatError, match="line 1"):
        read_events(path)


def test_bad_detector_reports_line(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("detector,timestamp\nT,0\nQ,55\n")
    with pytest.raises(DataFormatError, match="line 3"):
        read_events(path)


def test_bad_timestamp_reports_line(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("detector,timestamp\nT,zero\n")
    with pytest.raises(DataFormatError, match="line 2"):
        read_events(path)


def test_wrong_field_count_reports_line(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("detector,timestamp\nT,0,9\n")
    with pytest.raises(DataFormatError, match="line 2"):
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


PROPERTY_SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def reference_write_csv(stream, path):
    """The per-record writer that ``write_events`` replaced (CSV part)."""
    labels = DETECTOR_LABELS
    with open(path, "w", newline="") as fh:
        fh.write(",".join(EVENT_HEADER) + "\n")
        for code, tick in zip(stream.detectors, stream.timestamps):
            fh.write(f"{labels[code]},{tick}\n")


def reference_read(path):
    """The per-record reader that ``read_events`` replaced, plus the four
    rules it lacked: negative ticks, ticks above int64, records out of
    timestamp order and fields holding a line break are rejected on their
    line. Rows before the first line break each take one line, so counting
    rows counts lines.

    Returns ("ok", codes, ticks) or ("error", line number).
    """
    codes, ticks = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return ("error", 1)
        if [h.strip() for h in header] != list(EVENT_HEADER):
            return ("error", 1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2 or any("\r" in f or "\n" in f for f in row):
                return ("error", lineno)
            det, ts = row[0].strip(), row[1].strip()
            if det not in _LABEL_TO_CODE:
                return ("error", lineno)
            try:
                tick = int(ts)
            except ValueError:
                return ("error", lineno)
            if tick < 0 or tick >= 2**63 or (ticks and tick < ticks[-1]):
                return ("error", lineno)
            codes.append(_LABEL_TO_CODE[det])
            ticks.append(tick)
    return ("ok", codes, ticks)


def outcome(path):
    try:
        s = read_events(path)
    except DataFormatError as exc:
        assert str(path) in str(exc)
        return ("error", int(re.search(r"line (\d+)", str(exc)).group(1)))
    return ("ok", s.detectors.tolist(), s.timestamps.tolist())


@st.composite
def sorted_streams(draw, max_size=60):
    ticks = sorted(draw(st.lists(st.integers(0, 2**63 - 1), max_size=max_size)))
    codes = draw(st.lists(st.integers(0, 2), min_size=len(ticks), max_size=len(ticks)))
    resolution = draw(st.sampled_from([125.0, 62.5, 1.0]))
    return EventStream(np.array(codes), np.array(ticks), resolution)


# Lines that each break, or bend without breaking, one rule of the format.
ODD_LINES = [
    "Q,5", "t,5", "TT,5", "TTT,5", ",5",  # labels
    "T,5.0", "T,1e3", "T,0x10", "T,", "T,zero", "T,5_0", "T,+5", "T,-0",  # integers
    "T", "T,5,6", "T,5,", "T;5",  # field counts
    "T,-5", "A,-9223372036854775808",  # negative
    f"T,{2**63}", f"B,{2**64 + 3}", f"A,{2**63 - 1}",  # int64 range
    " T,5", "A ,7", "B,\t9 ", "T, 5", "   ",  # whitespace
    "",  # blank line
    '"T",5', 'T,"5"', "T\0,5", "T,5\0",  # quoting, NUL
    '"T\n",5', '"A\r",5', 'B,"5\r\n"',  # quoted line breaks
]


@st.composite
def event_file_bytes(draw):
    ticks = sorted(draw(st.lists(st.integers(0, 10**6), max_size=12)))
    lines = [f"{draw(st.sampled_from('TAB'))},{t}" for t in ticks]
    for _ in range(draw(st.integers(0, 3))):
        odd = draw(st.sampled_from(ODD_LINES))
        if lines and draw(st.booleans()):
            lines[draw(st.integers(0, len(lines) - 1))] = odd
        else:
            lines.insert(draw(st.integers(0, len(lines))), odd)
    header = draw(st.sampled_from(["detector,timestamp"] * 4 + [" detector , timestamp", "det,time"]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    tail = eol if draw(st.booleans()) else ""
    return (eol.join([header] + lines) + tail).encode()


@PROPERTY_SETTINGS
@given(stream=sorted_streams())
def test_roundtrip_matches_reference_writer(tmp_path, stream):
    path, ref = tmp_path / "events.csv", tmp_path / "reference.csv"
    write_events(stream, path)
    reference_write_csv(stream, ref)
    assert path.read_bytes() == ref.read_bytes()
    back = read_events(path)
    assert back.detectors.dtype == np.uint8 and back.timestamps.dtype == np.int64
    assert np.array_equal(back.detectors, stream.detectors)
    assert np.array_equal(back.timestamps, stream.timestamps)
    assert back.resolution == stream.resolution


@PROPERTY_SETTINGS
@given(data=event_file_bytes())
def test_reader_accepts_and_rejects_as_reference(tmp_path, data):
    path = tmp_path / "odd.csv"  # no sidecar
    path.write_bytes(data)
    assert outcome(path) == reference_read(path)


def test_writer_slices_are_seamless(tmp_path):
    n = 2 * _WRITE_SLICE + 7
    rng = np.random.default_rng(5)
    stream = EventStream(rng.integers(0, 3, n), np.sort(rng.integers(0, 10**12, n)))
    path, ref = tmp_path / "events.csv", tmp_path / "reference.csv"
    write_events(stream, path)
    reference_write_csv(stream, ref)
    assert path.read_bytes() == ref.read_bytes()
    assert np.array_equal(read_events(path).timestamps, stream.timestamps)


@pytest.mark.parametrize("body, line", [
    (f"T,0\nA,{2**63}\n", 3),
    ("T,-5\n", 2),
    ("T,10\nA,12\nB,11\n", 4),
    ("T\0,5\n", 2),
    pytest.param("T,0\nA,5\xff\n", 3, id="undecodable-byte"),
    pytest.param("T,0\nA," + "1" * 200_000 + "\n", 3, id="oversized-field"),
    pytest.param('T,0\n"T\n",5\nX,6\n', 3, id="line-break-in-field"),
    pytest.param('T,0\nA,5\n"B\r",7\n', 4, id="carriage-return-in-field"),
])
def test_reader_rejects_with_line(tmp_path, body, line):
    path = tmp_path / "e.csv"
    path.write_bytes(("detector,timestamp\n" + body).encode("latin-1"))
    with pytest.raises(DataFormatError, match=rf"{re.escape(str(path))}: .* line {line}\b"):
        read_events(path)


@pytest.mark.parametrize("text", [
    "detector,timestamp\n",
    "detector,timestamp\n\n\r\n",
    "detector , timestamp\r\n",
])
def test_header_only_file_reads_empty(tmp_path, text):
    path = tmp_path / "e.csv"
    path.write_bytes(text.encode())
    s = read_events(path)
    assert len(s) == 0


@pytest.mark.parametrize("name", ["e.csv", "e.gz", "e.xz"])
def test_rare_spellings_read_like_canonical(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b'detector,timestamp\r\n"T",+0\r\n\r\n A ,5_0\nB,\t60 \n')
    s = read_events(path)
    assert s.detectors.tolist() == [0, 1, 2]
    assert s.timestamps.tolist() == [0, 50, 60]


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

    def test_truncated_file_rejected(self, tmp_path):
        path = self.written(tmp_path)
        path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:-1]))
        expected = f"{path}: 4 records but the sidecar says 5"
        with pytest.raises(DataFormatError, match=re.escape(expected)):
            read_events(path)

    def test_edited_record_rejected(self, tmp_path):
        path = self.written(tmp_path)
        path.write_bytes(path.read_bytes().replace(b"A,400", b"A,401"))
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

    def test_given_resolution_needs_none_from_sidecar(self, tmp_path):
        path = self.written(tmp_path)
        sidecar_path(path).write_text(json.dumps({"n_records": 5}))
        assert read_events(path, resolution=62.5).resolution == 62.5
