import dataclasses
import hashlib
import json
import math
import re
import struct

import numpy as np
import pytest
from helpers import event_file, frame, header, smallest_period, stream_from_records
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from homsim import (ConfigError, DataFormatError, EventStream, ExperimentConfig, io, read_events,
                    write_events)
from homsim.io import (
    _FRAME,
    _MAGIC,
    DET_A,
    DET_B,
    DET_T,
    Frame,
    Grid,
    config_hash,
    read_frames,
    read_sidecar,
    sidecar_path,
    write_json,
    write_table,
)
from homsim.montecarlo import simulate, simulate_frames

GRID = Grid(1000.0, 125.0, 4000)  # the default config's: 8000 ticks per period


def clicks(*triples):
    """A click list of (label, owner, offset) triples, as the generator
    makes one: int64 offsets and owners, uint8 codes."""
    codes = np.array([io.DETECTOR_LABELS.index(c) for c, _, _ in triples], dtype=np.uint8)
    owners = np.array([owner for _, owner, _ in triples], dtype=np.int64)
    offsets = np.array([offset for _, _, offset in triples], dtype=np.int64)
    return offsets, owners, codes


def sample_frames(grid=GRID):
    """Two frames of five triggers: A and B on trigger 0, A on trigger 1,
    none on triggers 2 and 3, B on the last."""
    return [
        Frame(grid, 0, 2, clicks(("A", 0, 400), ("B", 0, 480), ("A", 1, 100))),
        Frame(grid, 2, 3, clicks(("B", 2, 7))),
    ]


SAMPLE = header() + frame(0, 2, [("A", 0, 400), ("B", 0, 480), ("A", 1, 100)]) + frame(
    2, 3, [("B", 2, 7)])


def test_from_records_and_labels():
    s = stream_from_records(
        [("T", 0), ("A", 400), ("B", 480), ("T", 8000), ("A", 8100)]
    )
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
    path = tmp_path / "events.csv"
    write_events(sample_frames(), path, metadata={"config": {"seed": 3}, "config_hash": "abc"})
    assert path.read_bytes() == SAMPLE
    meta = read_sidecar(path)
    assert meta["config_hash"] == "abc" and meta["n_records"] == 9
    back = list(read_frames(path))
    for got, want in zip(back, sample_frames(), strict=True):
        assert got[:3] == want[:3]
        for column, want_column in zip(got.clicks, want.clicks, strict=True):
            assert column.tolist() == want_column.tolist()
            # each frame is read into a buffer of its own: its arrays are writable
            assert column.flags.writeable
    s = read_events(path)
    assert s.resolution == 125.0
    assert s.detectors.tolist() == [DET_T, DET_A, DET_B, DET_T, DET_A, DET_T, DET_T, DET_T, DET_B]
    assert s.timestamps.tolist() == [0, 400, 480, 8000, 8100, 16000, 24000, 32000, 32007]


def test_default_config_hash_is_the_configs(tmp_path):
    # a config's hash does not depend on the frames: the same config gives
    # the same provenance for runs of any length
    config = {"seed": 3, "n_triggers": 10}
    for n in (1, 2):
        path = write_events(sample_frames()[:n], tmp_path / f"{n}.csv", metadata={"config": config})
        assert read_sidecar(path)["config_hash"] == config_hash(config)
    # without a config, the hash is the sidecar's own
    path = write_events(sample_frames(), tmp_path / "bare.csv")
    assert read_sidecar(path)["config_hash"] == config_hash({"n_records": 9})


@pytest.mark.parametrize("field, value", [("n_records", 99), ("sha256", "0" * 64)])
def test_metadata_cannot_overwrite_the_sidecar_fields(tmp_path, field, value):
    with pytest.raises(ValueError, match=field):
        write_events(sample_frames(), tmp_path / "events.csv", metadata={field: value})
    assert list(tmp_path.iterdir()) == []


def test_read_without_sidecar(tmp_path):
    path = event_file(tmp_path / "e.csv", frame(0, 2, [("A", 1, 5)]), head=header(500.5, 62.5, 7))
    s = read_events(path)
    assert s.resolution == 62.5
    assert s.detectors.tolist() == [DET_T, DET_T, DET_A]
    assert s.timestamps.tolist() == [0, 8008, 8013]


def test_run_files_read_back_as_the_run(tmp_path):
    # the generator's click order is the file's, and the layout of the
    # frames read back is the stream of the run
    config = ExperimentConfig(n_triggers=_FRAME + 99, eta_f=0.3, eta_s=0.6, bg_rate_a=1e-3,
                              seed=4)
    path = write_events(simulate_frames(config), tmp_path / "events.csv")
    for got, want in zip(read_frames(path), simulate_frames(config), strict=True):
        assert got[:3] == want[:3]
        for column, want_column in zip(got.clicks, want.clicks, strict=True):
            assert column.tolist() == want_column.tolist()
    s, want = read_events(path), simulate(config)
    assert s.detectors.tobytes() == want.detectors.tobytes()
    assert s.timestamps.tobytes() == want.timestamps.tobytes()


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


def reference_write(grid, frames, path):
    """The event file of `frames`, each (first, n, [(code, owner, offset),
    ...]), packed field by field with struct."""
    with open(path, "wb") as fh:
        fh.write(b"\x89HOMSIM\n" + struct.pack("<qddq", 2, *grid))
        for first, n, own in frames:
            m = len(own)
            fh.write(struct.pack("<3q", first, n, m))
            fh.write(struct.pack(f"<{m}q{m}I{m}B", *(o for _, _, o in own),
                                 *(w for _, w, _ in own), *(c for c, _, _ in own)))


def reference_read(path):
    """The event-file format, spelled out field by field with struct: the
    header of format 2 and a grid of positive, finite period and tick
    whose window's ticks are fewer than its period's; then frames of a
    count n in 1 .. 2**16 of triggers, from where the frame before ends
    (0 first) and with ticks within int64, and a count m >= 0 of clicks,
    each with an owner below n, an offset in 0 .. n_w - 1 and a code of 1
    or 2; at least one frame.

    Returns ("ok", frames) with frames as ``reference_write`` takes them,
    ("error", None) for a bad header, ("error", k) for frame k at fault
    and ("error", "empty") for no frame.
    """
    data = path.read_bytes()
    if data[:16] != b"\x89HOMSIM\n" + struct.pack("<q", 2) or len(data) < 40:
        return ("error", None)
    period, resolution, n_w = struct.unpack_from("<ddq", data, 16)
    if not (0 < period < math.inf and 0 < resolution < math.inf):
        return ("error", None)
    period_ticks = period * (1000.0 / resolution)
    if not 0 <= n_w < period_ticks:
        return ("error", None)
    frames, pos, end = [], 40, 0
    while pos < len(data):
        k = len(frames)
        if len(data) - pos < 24:
            return ("error", k)
        first, n, m = struct.unpack_from("<3q", data, pos)
        pos += 24
        if m < 0 or len(data) - pos < 13 * m:
            return ("error", k)
        offsets = struct.unpack_from(f"<{m}q", data, pos)
        owners = struct.unpack_from(f"<{m}I", data, pos + 8 * m)
        codes = data[pos + 12 * m : pos + 13 * m]
        pos += 13 * m
        if not 1 <= n <= 2**16 or first != end or (first + n) * period_ticks >= 2**63:
            return ("error", k)
        own = list(zip(codes, owners, offsets))
        if any(c not in (1, 2) or w >= n or not 0 <= o < n_w for c, w, o in own):
            return ("error", k)
        frames.append((first, n, own))
        end += n
    return ("ok", frames) if frames else ("error", "empty")


def outcome(path):
    try:
        frames = list(read_frames(path))
    except DataFormatError as exc:
        text = str(exc)
        assert text.startswith(f"{path}: ")
        if "no frame follows the header" in text:
            return ("error", "empty")
        k = re.match(rf"{re.escape(str(path))}: frame (\d+)", text)
        return ("error", k and int(k.group(1)))
    return ("ok", [(f.first, f.n_triggers, list(zip(f.clicks[2].tolist(), f.clicks[1].tolist(),
                                                   f.clicks[0].tolist())))
                   for f in frames])


GRIDS = [GRID, Grid(500.002, 1.0, 500_000), Grid(1e10, 1.0, 9_900_000_000_000)]


@st.composite
def runs(draw, max_frames=4):
    """A grid and up to `max_frames` frames, each (first, n, clicks), that
    the format takes."""
    grid = draw(st.sampled_from(GRIDS))
    frames, end = [], 0
    for _ in range(draw(st.integers(1, max_frames))):
        n = draw(st.sampled_from([1, 2, 5, 2**16]))
        own = draw(st.lists(st.tuples(st.integers(1, 2), st.integers(0, n - 1),
                                      st.integers(0, grid.n_w - 1)), max_size=6))
        frames.append((end, n, own))
        end += n
    return grid, frames


# Counts, offsets, owners and codes that each break, or come near
# breaking, one rule of the format; an offset is written modulo 2**64 and
# an owner modulo 2**32, as ``frame`` writes them
ODD_TRIGGERS = [0, -1, 2**16 + 1, 2**63 - 1, -(2**63)]
ODD_FIRSTS = [-1, 1, 2**62]
ODD_CLICK_COUNTS = [-1, 1, 2**62]
ODD_OFFSETS = [-1, 2**63, 3999, 4000, 2**63 - 1]
ODD_OWNERS = [-1, 2, 2**16, 2**32 - 1]
ODD_CODES = [0, 3, 255]


@st.composite
def odd_files(draw):
    """The bytes of an event file of a run with up to three of its fields
    made odd; its header perhaps of another grid or version."""
    grid, frames = draw(runs())
    frames = [[first, n, [list(c) for c in own]] for first, n, own in frames]
    counts = {}
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(frames) - 1))
        first, n, own = frames[k]
        field = draw(st.sampled_from(["first", "n", "m", "click"]))
        if field == "click" and own:
            click = own[draw(st.integers(0, len(own) - 1))]
            i = draw(st.integers(0, 2))
            click[i] = draw(st.sampled_from([ODD_CODES, ODD_OWNERS, ODD_OFFSETS][i]))
        elif field != "click":
            odd = {"first": ODD_FIRSTS, "n": ODD_TRIGGERS, "m": ODD_CLICK_COUNTS}[field]
            value = draw(st.sampled_from(odd))
            current = list(counts.get(k, (first, n, len(own))))
            current[["first", "n", "m"].index(field)] = value
            counts[k] = tuple(current)
    head = draw(st.sampled_from([
        header(*grid), header(*grid), header(*grid),
        header(1000.0, 125.0, 8001), header(1000.0, 125.0, -1), header(math.nan, 125.0, 0),
        header(1000.0, 0.0, 0), header(1e300, 1.0, 0), header(*grid)[:39],
        b"\x89HOMSIM\n" + struct.pack("<qddq", 1, *grid),
    ]))
    return head + b"".join(frame(first, n, [tuple(c) for c in own], counts.get(k))
                           for k, (first, n, own) in enumerate(frames))


@st.composite
def single_byte_mutations(draw):
    """A canonical event file with one byte replaced, inserted or deleted."""
    grid, frames = draw(runs(max_frames=2))
    path_bytes = header(*grid) + b"".join(
        frame(first, n, [(c, w, o) for c, w, o in own]) for first, n, own in frames)
    data = bytearray(path_bytes)
    edit = draw(st.sampled_from(["replace", "insert", "delete"]))
    pos = draw(st.integers(0, len(data) - (edit != "insert")))
    byte = draw(st.integers(0, 255))
    data[pos : pos + (edit != "insert")] = b"" if edit == "delete" else bytes([byte])
    return bytes(data)


@PROPERTY_SETTINGS
@given(run=runs())
def test_writer_matches_reference_writer(tmp_path, run):
    grid, frames = run
    path, ref = tmp_path / "events.csv", tmp_path / "reference.csv"
    write_events([Frame(Grid(*grid), first, n, clicks(*((io.DETECTOR_LABELS[c], w, o)
                                                       for c, w, o in own)))
                  for first, n, own in frames], path)
    reference_write(grid, frames, ref)
    assert path.read_bytes() == ref.read_bytes()
    assert read_sidecar(path)["sha256"] == hashlib.sha256(ref.read_bytes()).hexdigest()
    assert outcome(path) == ("ok", [(first, n, own) for first, n, own in frames])


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(data=st.data())
def test_reader_accepts_and_rejects_as_reference(tmp_path, data):
    path = tmp_path / "odd.csv"  # no sidecar
    path.write_bytes(data.draw(st.one_of(odd_files(), single_byte_mutations())))
    assert outcome(path) == reference_read(path)


def test_offsets_beyond_32_bits_round_trip(tmp_path):
    # a 9.9e9 ns window at 1 ps holds 9.9e12 ticks, past 2**32
    grid = GRIDS[2]
    frames = [Frame(grid, 0, 3, clicks(("A", 0, grid.n_w - 1), ("B", 2, 2**32), ("B", 1, 0)))]
    path = write_events(frames, tmp_path / "events.csv")
    (back,) = read_frames(path)
    assert back.clicks[0].tolist() == [grid.n_w - 1, 2**32, 0]
    s = read_events(path)
    assert s.timestamps.tolist() == [0, grid.n_w - 1, 10**13, 10**13, 2 * 10**13,
                                     2 * 10**13 + 2**32]


# Frame faults: the error names the file, the frame and, for a click at
# fault, the click
OK_FRAME = frame(0, 2, [("A", 0, 5), ("B", 1, 9)])


@pytest.mark.parametrize("frames, message", [
    ([OK_FRAME, frame(2, 2, [("A", 1, 5), ("B", 2, 9)])],
     "frame 1, click 1: owner 2 is at or past the frame's 2 triggers"),
    ([frame(0, 2, [("A", 0, 5), ("B", 1, -1 % 2**64)])],
     "frame 0, click 1: offset -1 is not within the window's 4000 ticks"),
    ([frame(0, 1, [("A", 0, 3999), ("B", 0, 4000)])],
     "frame 0, click 1: offset 4000 is not within the window's 4000 ticks"),
    ([OK_FRAME, frame(2, 1, [("T", 0, 5)])],
     "frame 1, click 0: detector code 0, expected 1 (A) or 2 (B)"),
    ([frame(0, 1, [(3, 0, 5)])], "frame 0, click 0: detector code 3, expected 1 (A) or 2 (B)"),
    ([OK_FRAME, OK_FRAME[:-1]], "frame 1 is cut short: its 2 clicks take 26 bytes, 25 are left"),
    ([OK_FRAME, OK_FRAME[:23]], "frame 1 is cut short in its counts"),
    ([OK_FRAME, frame(2, 2, [("A", 1, 5)])[:-1]],
     "frame 1 is cut short: its 1 clicks take 13 bytes, 12 are left"),
    # a click count of 2**62 is refused against the bytes left, not allocated
    ([frame(0, 1, counts=(0, 1, 2**62))],
     f"frame 0 is cut short: its {2**62} clicks take {13 * 2**62} bytes, 0 are left"),
    ([frame(0, 1, counts=(0, 1, -1))], "frame 0 has a click count of -1"),
    ([OK_FRAME, frame(3, 1)], "frame 1 starts at trigger 3, not at 2, where the frame before ends"),
    ([OK_FRAME, frame(0, 1)], "frame 1 starts at trigger 0, not at 2, where the frame before ends"),
    ([frame(1, 1)], "frame 0 starts at trigger 1, not at 0"),
    ([frame(0, 0)], "frame 0 has a trigger count of 0, not 1 to 65536"),
    ([frame(0, 2**16 + 1)], "frame 0 has a trigger count of 65537, not 1 to 65536"),
], ids=["owner-past-triggers", "negative-offset", "offset-at-window", "code-T", "code-3",
        "last-byte-cut", "counts-cut", "clicks-cut", "click-count-2**62",
        "click-count-negative", "first-skips-ahead", "first-starts-over", "first-not-0",
        "no-trigger", "triggers-past-frame"])
def test_reader_names_the_frame_and_click(tmp_path, frames, message):
    path = event_file(tmp_path / "e.csv", *frames)
    with pytest.raises(DataFormatError, match=rf"^{re.escape(f'{path}: {message}')}"):
        read_events(path)
    assert reference_read(path)[0] == "error"


@pytest.mark.parametrize("grid", [
    Grid(1e300, 1.0, 0), Grid(1000.0, 1e-300, 0),
], ids=["period-1e300", "tick-1e-300"])
def test_frames_past_int64_ticks_rejected(tmp_path, grid):
    # one trigger past 2**63 ticks: no run's config takes it
    path = event_file(tmp_path / "e.csv", frame(0, 1), head=header(*grid))
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: frame 0 ends at trigger 1, whose "
                                                        "tick is past int64")):
        read_events(path)
    with pytest.raises(ValueError, match="frame 0 ends at trigger 1"):
        write_events([Frame(grid, 0, 1, clicks())], tmp_path / "w.csv")
    assert not (tmp_path / "w.csv").exists()


@pytest.mark.parametrize("head, message", [
    (b"detector,timestamp\nT,0\n", "not a homsim event file of format 2"),
    (b"\x89HOMSIM\n" + (1).to_bytes(8, "little"), "not a homsim event file of format 2"),
    (_MAGIC[:-1], "not a homsim event file of format 2"),
    (b"", "not a homsim event file of format 2"),
    (header()[:-1], "the header is cut short in its grid"),
    (header(1000.0, 125.0, 8001), "a trigger period of 1000.0 ns, ticks of 125.0 ps and a window "
                                  "of 8001 ticks are no run's grid"),
    (header(1000.0, 125.0, 8000), "no run's grid"),
    (header(1000.0, 125.0, -1), "no run's grid"),
    (header(-1000.0, 125.0, 0), "no run's grid"),
    (header(math.inf, 125.0, 0), "no run's grid"),
    (header(1000.0, math.nan, 0), "no run's grid"),
], ids=["text-0.2.0", "format-1", "magic-cut", "empty", "grid-cut", "window-past-period",
        "window-of-the-period", "negative-window", "negative-period", "infinite-period",
        "nan-tick"])
def test_header_faults_rejected(tmp_path, head, message):
    path = event_file(tmp_path / "e.csv", head=head)
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: .*{re.escape(message)}"):
        read_events(path)


# 1,000,001 ticks of 1 ps in both the period and the window: trigger 3's
# tick, 3000002.99... floored, is that of trigger 2's click at offset
# 1,000,000, so pairing by tick and by owner would disagree
REACHING = Grid(1000.001, 1.0, 1_000_001)


def test_window_reaching_the_next_trigger_rejected(tmp_path):
    path = event_file(tmp_path / "e.csv", frame(0, 4, [("A", 2, 1_000_000)]),
                      head=header(*REACHING))
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: .*no run's grid"):
        list(read_frames(path))
    out = tmp_path / "w.csv"
    with pytest.raises(ValueError, match="no run's grid"):
        write_events([Frame(REACHING, 0, 4, clicks(("A", 2, 1_000_000)))], out)
    assert not out.exists() and not sidecar_path(out).exists()


@st.composite
def config_grids(draw):
    """A config's tick length, window and trigger period: the shortest
    period it accepts or one some ticks longer."""
    resolution = draw(st.sampled_from([0.5, 1.0, 62.5, 125.0, 1000.0]) | st.floats(0.01, 1e4))
    window = draw(st.floats(1e-3, 1e11))
    period = smallest_period(window, resolution)
    return resolution, window, period + draw(st.sampled_from([0.0, 1.0, 1e3])) * resolution / 1000


@settings(max_examples=300, deadline=None)
@given(case=config_grids())
@example(case=(1.0, 9.9e10, smallest_period(9.9e10, 1.0)))
@example(case=(0.5, 500.0, smallest_period(500.0, 0.5)))
# a window 1e-10 tick short of 500,000 ticks counts them all, and the
# shortest period then floors to that count too
@example(case=(1.0, 499.9999999999, smallest_period(499.9999999999, 1.0)))
def test_every_config_grid_is_a_run_grid(case):
    resolution, window, period = case
    try:
        config = ExperimentConfig(n_triggers=1, trigger_period=period, window_length=window,
                                  timestamp_resolution=resolution)
    except ConfigError:
        assume(False)
    grid = next(simulate_frames(config)).grid
    assert io._grid_fault(grid) is None


@pytest.mark.parametrize("field, value", [
    ("timestamp_resolution", 1.0), ("trigger_period", 1000.125), ("window_length", 400.0),
])
def test_sidecar_config_of_another_grid_rejected(tmp_path, field, value):
    config = ExperimentConfig(n_triggers=10, seed=3)
    other = {**dataclasses.asdict(config), field: value}
    out = tmp_path / "events.csv"
    match = r"the config's grid .* is \(.*\), not the frames' \(1000.0, 125.0, 4000\)"
    with pytest.raises(ValueError, match=match):
        write_events(simulate_frames(config), out, metadata={"config": other})
    assert list(tmp_path.iterdir()) == []
    # its own config, and one whose window is 0.4 tick longer, are the frames' grid
    for echo in (dataclasses.asdict(config), {"window_length": 500.05}):
        write_events(simulate_frames(config), out, metadata={"config": echo})
        assert read_sidecar(out)["config"] == echo


def test_format_1_file_of_0_3_0_rejected_at_its_header(tmp_path):
    # 0.3.0's file of T,0 / A,50 / B,60: a frame of three ticks and codes
    old = b"\x89HOMSIM\n" + struct.pack("<5q", 1, 3, 0, 50, 60) + bytes([0, 1, 2])
    path = tmp_path / "e.csv"
    path.write_bytes(old)
    expected = (f"{path}: not a homsim event file of format 2: its first bytes are "
                f"{old[:16]!r}, expected {_MAGIC!r}")
    with pytest.raises(DataFormatError, match=f"^{re.escape(expected)}$"):
        read_events(path)


def test_header_only_file_rejected(tmp_path):
    path = event_file(tmp_path / "e.csv")
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: no frame follows the header")):
        read_events(path)


# Near-canonical spellings of the sample file, each as long as it: a
# reader that only counted bytes might take them. Another magic; a lone
# CR for the magic's LF, as a text-mode copy can make; a big-endian
# trigger count; and the last code, a CR.
SAME_SIZE_SPELLINGS = [
    (b"\x89HOMSIN\n" + SAMPLE[8:], "not a homsim event file of format 2"),
    (SAMPLE.replace(b"\n", b"\r", 1), "not a homsim event file of format 2"),
    (SAMPLE[:48] + (2).to_bytes(8, "big") + SAMPLE[56:], "frame 0 has a trigger count of"),
    (SAMPLE[:-1] + b"\r", "frame 1, click 0: detector code 13"),
]


@pytest.mark.parametrize("data, where", SAME_SIZE_SPELLINGS,
                         ids=["same-length-magic", "lone-carriage-return", "big-endian-count",
                              "carriage-return-at-end"])
def test_same_size_spellings_rejected(tmp_path, data, where):
    assert len(data) == len(SAMPLE)
    path = tmp_path / "e.csv"
    path.write_bytes(data)
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}: {re.escape(where)}"):
        read_events(path)


ARRAYS_FAULT = ": its offsets, owners and codes must be 1-D integer arrays of one length, got "


class TestWriterChecks:
    """The writer refuses what the reader would, and leaves no file."""

    @staticmethod
    def frames_then_failure():
        yield from sample_frames()[:1]
        raise RuntimeError("the chunk source failed")

    @pytest.mark.parametrize("frames, error, match", [
        ([Frame(GRID, 0, 1, clicks(("A", 1, 5)))], ValueError,
         "frame 0, click 0: owner 1 is at or past"),
        ([Frame(GRID, 0, 1, clicks(("A", 0, -5)))], ValueError, "frame 0, click 0: offset -5"),
        ([Frame(GRID, 0, 1, clicks(("A", 0, 4000)))], ValueError, "frame 0, click 0: offset 4000"),
        ([Frame(GRID, 0, 1, clicks(("T", 0, 5)))], ValueError, "frame 0, click 0: detector code 0"),
        ([Frame(GRID, 0, 1, clicks(("A", -1, 5)))], ValueError, "frame 0, click 0: owner -1"),
        ([Frame(GRID, 0, 1, clicks(("A", 2**32, 5)))], ValueError, "click 0: owner 4294967296"),
        (sample_frames()[::-1], ValueError, "frame 0 starts at trigger 2, not at 0"),
        ([Frame(GRID, 0, _FRAME + 1, clicks())], ValueError, "frame 0 has a trigger count"),
        (sample_frames()[:1] + sample_frames(Grid(1000.0, 62.5, 8000))[1:], ValueError,
         "share one grid"),
        (sample_frames(Grid(1000.0, 125.0, 9000)), ValueError, "no run's grid"),
        (sample_frames(Grid(1000.0, 125.0, 8000)), ValueError, "no run's grid"),
        ([], ValueError, "no frame"),
        (frames_then_failure(), RuntimeError, "chunk source"),
        # click arrays unlike the reader's, refused before any cast: a short
        # code array that would broadcast through the range checks, a NaN
        # offset that passes them, float offsets and owners that the casts
        # would truncate, and lengths that do not broadcast
        (sample_frames()[:1] + [Frame(GRID, 2, 2, (np.array([3, 10, 11]),
                                                   np.array([0, 1, 1], np.uint32),
                                                   np.array([1], np.uint8)))],
         ValueError, f"frame 1{ARRAYS_FAULT}int64 (3,), uint32 (3,), uint8 (1,)"),
        ([Frame(GRID, 0, 1, (np.array([np.nan]), np.zeros(1, np.uint32), np.ones(1, np.uint8)))],
         ValueError, f"frame 0{ARRAYS_FAULT}float64 (1,), uint32 (1,), uint8 (1,)"),
        ([Frame(GRID, 0, 1, (np.array([3.7]), np.array([0.5]), np.ones(1, np.uint8)))],
         ValueError, f"frame 0{ARRAYS_FAULT}float64 (1,), float64 (1,), uint8 (1,)"),
        ([Frame(GRID, 0, 3, (np.arange(2), np.arange(3), np.ones(3, np.uint8)))],
         ValueError, f"frame 0{ARRAYS_FAULT}int64 (2,), int64 (3,), uint8 (3,)"),
    ], ids=["owner", "negative-offset", "offset", "code", "negative-owner", "owner-past-uint32",
            "out-of-order", "trigger-count", "mixed-grids", "window-past-period",
            "window-of-the-period", "no-frame", "failing-source", "short-codes", "nan-offset",
            "float-clicks", "lengths"])
    def test_writer_refuses_and_leaves_no_file(self, tmp_path, frames, error, match):
        path = tmp_path / "events.csv"
        path.write_text("an earlier run")
        sidecar_path(path).write_text("{}")
        with pytest.raises(error, match=re.escape(match)):
            write_events(iter(frames), path)
        assert list(tmp_path.iterdir()) == []


class TestSidecarIntegrity:
    def written(self, tmp_path):
        return write_events(sample_frames(), tmp_path / "events.csv")

    def test_digest_stored(self, tmp_path):
        path = self.written(tmp_path)
        meta = read_sidecar(path)
        assert meta["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert meta["n_records"] == 9

    def test_truncated_file_rejected(self, tmp_path):
        # cut at the edge of its last frame, of three triggers and a click
        path = self.written(tmp_path)
        path.write_bytes(path.read_bytes()[: -(24 + 13)])
        expected = f"{path}: 5 records but the sidecar says 9"
        with pytest.raises(DataFormatError, match=re.escape(expected)):
            read_events(path)

    def test_edited_record_rejected(self, tmp_path):
        path = self.written(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data.replace((400).to_bytes(8, "little"), (401).to_bytes(8, "little")))
        assert path.read_bytes() != data
        with pytest.raises(DataFormatError, match="sha256"):
            read_events(path)

    def test_sidecar_without_digest_still_reads(self, tmp_path):
        path = self.written(tmp_path)
        meta = read_sidecar(path)
        del meta["sha256"]
        sidecar_path(path).write_text(json.dumps(meta))
        assert len(read_events(path)) == 9

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

    @pytest.mark.parametrize("sidecar", [[1], "x", 5, None],
                             ids=["list", "string", "number", "null"])
    def test_sidecar_not_an_object_rejected(self, tmp_path, sidecar):
        path = self.written(tmp_path)
        sidecar_path(path).write_text(json.dumps(sidecar))
        with pytest.raises(DataFormatError, match=re.escape(f"{sidecar_path(path)}: ")):
            read_events(path)

    @pytest.mark.parametrize("field, value, message", [
        ("n_records", 99, "9 records but the sidecar says 99"),
        ("sha256", "0" * 64, "contents do not match the sidecar's sha256"),
    ])
    def test_sidecar_mismatch_raised_after_the_last_frame(self, tmp_path, field, value, message):
        path = self.written(tmp_path)
        meta = read_sidecar(path)
        meta[field] = value
        sidecar_path(path).write_text(json.dumps(meta))
        frames = read_frames(path)
        assert [next(frames).n_triggers for _ in range(2)] == [2, 3]
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: {message}")):
            next(frames)
