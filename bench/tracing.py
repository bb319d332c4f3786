"""Outside-in tracing of homsim's layers.

A layer is one module under ``src/homsim/``. The CLI reaches every layer
through module attributes (``montecarlo.simulate``, ``io.read_events``,
``analysis.pair_events``, ...), so replacing those attributes with
recording wrappers traces every layer boundary without editing the
package. A call made from inside a layer to a function of the same layer
(``dip_curve`` -> ``visibility``, ``coincidence_probability_numeric`` ->
``coincidence_density``) is not a boundary: it records no span and no
count, and its time stays with the outer call.

Spans live in memory as (name, start, end, parent) and are written out by
the caller when the run ends. Counts are taken from the arguments and
results at the same boundaries, after the span has closed.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Functions whose calls are layer boundaries; everything else a CLI
# command does (argument and config parsing, output writers, closed forms
# such as dip_ratio) is CLI self time.
LAYER_FUNCTIONS = {
    "montecarlo": ("simulate",),
    "io": ("write_events", "read_events"),
    "analysis": ("pair_events", "histogram", "estimate_accidentals", "visibility", "dip_curve"),
    "interference": ("coincidence_density", "coincidence_probability_numeric"),
}

# Span name -> per-layer metric that receives the span's self time.
SELF_TIME_METRIC = {
    "io.write_events": "io.write_events_s",
    "io.read_events": "io.read_events_s",
    "montecarlo.simulate": "montecarlo.simulate_s",
    "analysis.pair_events": "analysis.pair_events_s",
    "analysis.histogram": "analysis.histogram_s",
    "analysis.estimate_accidentals": "analysis.reduce_s",
    "analysis.visibility": "analysis.reduce_s",
    "analysis.dip_curve": "analysis.reduce_s",
    "interference.coincidence_density": "interference.coincidence_density_s",
    "interference.coincidence_probability_numeric": "interference.numeric_probability_s",
}
CLI_PREFIX = "cli."


def layer_targets():
    """(module, attribute) pairs for every layer boundary in LAYER_FUNCTIONS."""
    return [
        (importlib.import_module(f"homsim.{layer}"), attr)
        for layer, attrs in LAYER_FUNCTIONS.items()
        for attr in attrs
    ]


def patch(targets, make_wrapper):
    """Replace each ``module.attr`` by ``make_wrapper(name, original)``.

    ``name`` is ``"<layer>.<attr>"`` with the package prefix dropped.
    Returns a function that restores the originals.
    """
    saved = []
    for module, attr in targets:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        layer = module.__name__.rsplit(".", 1)[-1]
        setattr(module, attr, make_wrapper(f"{layer}.{attr}", original))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None for a root

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end, "parent": self.parent}


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - covered(kids) for s, kids in zip(spans, children)]


def _counts_for(name, args, kwargs, result) -> dict:
    """Work counts read at a layer boundary from its arguments and result."""
    if name == "montecarlo.simulate":
        triggers = int(np.count_nonzero(result.detectors == 0))
        return {"montecarlo.simulate_calls": 1, "montecarlo.records": len(result),
                "montecarlo.triggers": triggers}
    if name == "io.write_events":
        return {"io.bytes_written": os.path.getsize(result)}
    if name == "io.read_events":
        return {"io.bytes_read": os.path.getsize(args[0] if args else kwargs["path"])}
    if name == "analysis.pair_events":
        valid = int(np.count_nonzero(result.valid))
        return {"analysis.triggers": result.n_triggers, "analysis.valid": valid,
                "analysis.paired": int(np.count_nonzero(result.paired))}
    if name == "analysis.histogram":
        delta_ts = args[0] if args else kwargs["delta_ts"]
        return {"analysis.hist_dropped": len(delta_ts) - int(result.counts.sum())}
    if name == "interference.coincidence_density":
        return {"interference.coincidence_density_calls": 1}
    return {}


class Tracer:
    """Records layer spans and boundary counts while installed.

    Layer functions are called from the main thread only (``simulate``
    runs its own worker threads below the boundary), so one span stack
    suffices.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]].layer == layer:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            for key, value in _counts_for(name, args, kwargs, result).items():
                self.counts[key] = self.counts.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=None):
        """Wrap the layer boundaries; returns the function that unwraps them."""
        return patch(layer_targets() if targets is None else targets, self._wrap)


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced pass from its spans and counts."""
    m = dict.fromkeys(set(SELF_TIME_METRIC.values()) | {"cli.self_s"}, 0.0)
    for span, own in zip(spans, self_times(spans)):
        if span.name.startswith(CLI_PREFIX):
            m["cli.self_s"] += own
        elif span.name in SELF_TIME_METRIC:
            m[SELF_TIME_METRIC[span.name]] += own

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    def c(key):
        return counts.get(key, 0)

    written, read = c("io.bytes_written"), c("io.bytes_read")
    m["io.event_bytes"] = written
    m["io.write_mb_per_s"] = ratio(written, m["io.write_events_s"], 1e-6)
    m["io.read_mb_per_s"] = ratio(read, m["io.read_events_s"], 1e-6)
    records, triggers = c("montecarlo.records"), c("montecarlo.triggers")
    m["montecarlo.simulate_calls"] = c("montecarlo.simulate_calls")
    m["montecarlo.records"] = records
    m["montecarlo.records_per_s"] = ratio(records, m["montecarlo.simulate_s"])
    m["montecarlo.clicks_per_trigger"] = ratio(records - triggers, triggers)
    valid = c("analysis.valid")
    m["analysis.valid_frac"] = ratio(valid, c("analysis.triggers"))
    m["analysis.paired_frac"] = ratio(c("analysis.paired"), valid)
    m["analysis.hist_dropped"] = c("analysis.hist_dropped")
    calls = c("interference.coincidence_density_calls")
    m["interference.coincidence_density_calls"] = calls
    m["interference.quad_ms_per_point"] = ratio(m["interference.coincidence_density_s"], calls, 1e3)
    return m


def count_calls(module, attr):
    """Wrap ``module.attr`` with a bare call counter.

    Returns (counter, restore) where ``counter[0]`` holds the call count.
    """
    counter = [0]

    def make(_name, fn):
        def counted(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)

        return counted

    return counter, patch([(module, attr)], make)
