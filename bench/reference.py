"""Fixed reference computation that calibrates the host's speed.

On a shared host the speed a process gets drifts by tens of per cent
over seconds to minutes, so raw pass times of the same code vary more
between runs than a regression bound allows. The benchmark therefore
runs this computation, which never changes with homsim, before and after
every timed operation and divides the operation's time by the mean of
the two reference times around it. Multiplying by ``REF_S`` turns that
ratio back into seconds: a normalised time reads as the time the
operation would take on a host where one reference computation takes
``REF_S`` seconds.

The computation mixes the kinds of work homsim does: CSV text formatting
and parsing, numpy sorting and searching on timestamp-like arrays, and
adaptive quadrature with a Python integrand. Its inputs are fixed, so it
does the same work in every run.
"""

from __future__ import annotations

import csv
import io
import math
import time

import numpy as np
from scipy.integrate import quad

REF_S = 0.020  # nominal seconds of one reference computation

_RNG = np.random.default_rng(20150403)
_TIMES = _RNG.exponential(26.0, 120_000).cumsum()
_ROWS = [("AB"[i % 2], int(t)) for i, t in enumerate(_TIMES[:12_000])]


def _text() -> int:
    buf = io.StringIO()
    csv.writer(buf).writerows(_ROWS)
    return sum(int(ts) for _, ts in csv.reader(io.StringIO(buf.getvalue())))


def _arrays() -> int:
    shuffled = _TIMES[::-1] + (_TIMES[::-1] % 7.0)
    ordered = np.sort(shuffled)
    return int(np.searchsorted(ordered, ordered + 50.0).sum())


def _quadrature() -> float:
    return sum(quad(lambda x, w=w: math.exp(-x / 13.61) * math.cos(w * x) ** 2,
                    0.0, 400.0, limit=200, epsabs=1e-12)[0] for w in (1.0, 2.0, 3.0, 4.0))


def ref_time() -> float:
    """Seconds one reference computation takes now."""
    t0 = time.perf_counter()
    _text()
    _arrays()
    _quadrature()
    return time.perf_counter() - t0


def normalise(times, refs) -> list[float]:
    """Scale times[i] by REF_S over the mean of refs[i] and refs[i + 1].

    ``refs`` holds one reference time before the first timed interval and
    one after each, so it is one longer than ``times``.
    """
    if len(refs) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} reference times, got {len(refs)}")
    return [t * REF_S / (0.5 * (a + b)) for t, a, b in zip(times, refs, refs[1:])]
