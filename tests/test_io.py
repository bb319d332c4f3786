import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homsim import DataFormatError, EventStream, read_events, write_events
from homsim.io import (
    _WRITE_SLICE,
    _parse_fast,
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
    """The event-file grammar, spelled out without a regular expression:
    the header line, then records ``T|A|B,<ticks>`` with ticks in plain
    decimal (no sign, padding or leading zero), below 2**63 and never
    decreasing, and every line ending in LF.

    Returns ("ok", codes, ticks) or ("error", line number).
    """
    lines = path.read_bytes().split(b"\n")
    if lines[0] != ",".join(EVENT_HEADER).encode():
        return ("error", 1)
    codes, ticks = [], []
    for lineno, line in enumerate(lines[1:-1], start=2):
        label, comma, digits = line.partition(b",")
        if label.decode("latin-1") not in DETECTOR_LABELS or not comma:
            return ("error", lineno)
        if not digits.isdigit() or len(digits) > 19 or digits != str(int(digits)).encode():
            return ("error", lineno)
        tick = int(digits)
        if tick >= 2**63 or (ticks and tick < ticks[-1]):
            return ("error", lineno)
        codes.append(DETECTOR_LABELS.index(label.decode()))
        ticks.append(tick)
    if lines[-1]:
        return ("error", len(lines))
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
    "T,5.0", "T,1e3", "T,0x10", "T,", "T,zero", "T,5_0", "T,+5", "T,-0", "T,05", "T,00",  # integers
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
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    tail = eol if draw(st.booleans()) else ""
    return (eol.join([header] + lines) + tail).encode()


# Line breaks, padding, separators, signs, digits, labels and quotes: the
# bytes that turn a canonical line into a near miss
MUTATION_BYTES = list(b'\n\r\0\t ,+-059TAB"e\xff')


@st.composite
def single_byte_mutations(draw):
    """A canonical event file with one byte replaced, inserted or deleted."""
    ticks = sorted(draw(st.lists(st.integers(0, 10**6), max_size=8)))
    text = ",".join(EVENT_HEADER) + "\n"
    text += "".join(f"{draw(st.sampled_from('TAB'))},{t}\n" for t in ticks)
    data = bytearray(text.encode())
    edit = draw(st.sampled_from(["replace", "insert", "delete"]))
    pos = draw(st.integers(0, len(data) - (edit != "insert")))
    byte = draw(st.one_of(st.sampled_from(MUTATION_BYTES), st.integers(0, 255)))
    data[pos : pos + (edit != "insert")] = b"" if edit == "delete" else bytes([byte])
    return bytes(data)


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


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(data=st.one_of(event_file_bytes(), single_byte_mutations()))
def test_reader_accepts_and_rejects_as_reference(tmp_path, data):
    path = tmp_path / "odd.csv"  # no sidecar
    path.write_bytes(data)
    assert outcome(path) == reference_read(path)


def test_fast_path_takes_canonical_files(tmp_path):
    # every digit count, at and beside each power of ten; declining would
    # still read right, through the line-by-line parse
    ticks = sorted({0, 2**63 - 1} | {10**k + d for k in range(1, 19) for d in (-1, 0, 1)})
    stream = EventStream(np.arange(len(ticks)) % 3, ticks)
    path = write_events(stream, tmp_path / "events.csv")
    parsed = _parse_fast(path, path.stat().st_size)
    assert parsed is not None
    assert parsed[0].tolist() == stream.detectors.tolist() and parsed[1].tolist() == ticks


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


@pytest.mark.parametrize("text", ["detector,timestamp\n"])
def test_header_only_file_reads_empty(tmp_path, text):
    path = tmp_path / "e.csv"
    path.write_bytes(text.encode())
    s = read_events(path)
    assert len(s) == 0


@pytest.mark.parametrize("text, line", [
    ("detector , timestamp\r\n", 1),
    ("detector,timestamp\n\n\r\n", 2),
], ids=["detector , timestamp\r\n", "detector,timestamp\n\n\r\n"])
def test_header_only_spellings_rejected(tmp_path, text, line):
    path = tmp_path / "e.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DataFormatError, match=rf"{re.escape(str(path))}: .* line {line}\b"):
        read_events(path)


# Near-canonical spellings of the records T,0 / A,50 / B,60, each with the
# line the grammar rejects
RARE_SPELLINGS = [
    (b"detector,timestamp\r\nT,0\nA,50\nB,60\n", 1),
    (b" detector , timestamp\nT,0\nA,50\nB,60\n", 1),
    (b'detector,timestamp\n"T",0\nA,50\nB,60\n', 2),
    (b"detector,timestamp\nT,+0\nA,50\nB,60\n", 2),
    (b"detector,timestamp\nT,0\r\nA,50\nB,60\n", 2),
    (b"detector,timestamp\nT,0\n\nA,50\nB,60\n", 3),
    (b"detector,timestamp\nT,0\n A ,50\nB,60\n", 3),
    (b"detector,timestamp\nT,0\nA,5_0\nB,60\n", 3),
    (b"detector,timestamp\nT,0\nA,050\nB,60\n", 3),
    (b"detector,timestamp\nT,0\nA,50\nB,\t60 \n", 4),
]


@pytest.mark.parametrize("name", ["e.csv", "e.gz", "e.xz"])
def test_rare_spellings_rejected(tmp_path, name):
    path = tmp_path / name
    for data, line in RARE_SPELLINGS:
        path.write_bytes(data)
        with pytest.raises(DataFormatError, match=rf"{re.escape(str(path))}: .* line {line}\b"):
            read_events(path)


# Files exactly as long as the canonical text of what np.loadtxt reads
# from them: the fast path's size check alone would not tell them apart
@pytest.mark.parametrize("data, line", [
    (b"detector,timestamq\nT,0\nA,5\n", 1),
    (b"detector,timestamp\nT,0\rA,5\n", 2),
    (b"detector,timestamp\nT,0\n\nA,5", 3),
    (b"detector,timestamp\nT,0\nA,5\r", 3),
], ids=["same-length-header", "lone-carriage-return", "blank-line-and-no-final-break",
        "carriage-return-at-end"])
def test_same_size_spellings_rejected(tmp_path, data, line):
    path = tmp_path / "e.csv"
    path.write_bytes(data)
    with pytest.raises(DataFormatError, match=rf"{re.escape(str(path))}: .* line {line}\b"):
        read_events(path)


def test_file_cut_mid_record_fails_on_last_line(tmp_path):
    path = write_events(sample_stream(), tmp_path / "events.csv")
    sidecar_path(path).unlink()
    data = path.read_bytes()
    path.write_bytes(data[: data.rindex(b"8100") + 2])  # "... A,81"
    expected = f"{path}: no line break at the end of line 6"
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
