"""The benchmark's three workloads.

Each pass runs public CLI commands (``homsim.cli.main``) in-process, in
the order a user would, plus the library cross-check of the oracle
workload. Inputs are fixed numbers and the pass seed; nothing is derived
from code under test. The check of a pass reads its output files after
the timed region and returns the failures it found, keyed by the
operation whose output was wrong.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

TAU_S, TAU_F = 26.18, 13.61  # ns, the package defaults (single-atom, heralded)

# Background rate (/ns per detector) at which the raw +-25 ns visibility
# of the eta = 0.05 run is 0.62: the root of the first-order accidental
# model that acceptance criterion 6 bisects (1.15278e-4), rounded. Kept
# as a constant so the inputs do not depend on code under test.
BG_RATE_RAW_62 = 1.1528e-4
RAW_V_TARGET = 0.62
N_SIGMA = 5.0

DIP_DELTAS = (-40.0, -30.0, -20.0, -10.0, 0.0, 10.0, 20.0, 30.0, 40.0)
ORACLE_DETUNING = 2.0  # MHz; any non-zero value selects the quadrature path
ORACLE_DENSITY_POINTS = 101  # default grid -100:100:2


@dataclass
class Op:
    """One operation of a pass: a CLI invocation or a library call."""

    name: str
    argv: list[str] | None = None
    call: Callable[[], object] | None = None


def config_text(values: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def read_histogram_csv(path):
    """Parse a histogram_*.csv written by ``homsim analyze``."""
    from homsim.analysis import CoincidenceHistogram

    n_triggers = None
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# n_triggers="):
            n_triggers = int(line.split("=", 1)[1])
        elif line and not line.startswith("#") and not line.startswith("bin_center"):
            center, count, _ = line.split(",")
            rows.append((float(center), int(count)))
    centers = np.array([r[0] for r in rows])
    counts = np.array([r[1] for r in rows], dtype=np.int64)
    return CoincidenceHistogram(float(centers[1] - centers[0]), centers, counts, n_triggers)


def dip_model(delta_t: float) -> float:
    """Closed-form suppression ratio 1 - V exp(-|dt| / tau), tau_s for dt >= 0."""
    v = 4.0 * TAU_S * TAU_F / (TAU_S + TAU_F) ** 2
    tau = TAU_S if delta_t >= 0.0 else TAU_F
    return 1.0 - v * math.exp(-abs(delta_t) / tau)


def g_perp_model(dt: float) -> float:
    """Non-interfering coincidence density of synchronized exponential photons."""
    a, b = 1.0 / TAU_F, 1.0 / TAU_S
    return 0.25 * a * b / (a + b) * (math.exp(-a * abs(dt)) + math.exp(-b * abs(dt)))


@dataclass
class VisibilitySparse:
    """simulate par, simulate perp, analyze: the paper's low-efficiency run."""

    n_triggers: int = 250_000
    name: str = "visibility_sparse"
    physics: dict = field(default_factory=lambda: {
        "eta_f": 0.05, "eta_s": 0.05, "tau_f": TAU_F, "tau_s": TAU_S,
        "bg_rate_a": BG_RATE_RAW_62, "bg_rate_b": BG_RATE_RAW_62,
    })

    @property
    def items_per_pass(self) -> int:
        return 2 * self.n_triggers

    def sizes(self) -> dict:
        return {"n_triggers_per_polarisation": self.n_triggers, "runs_per_pass": 2}

    def prepare(self, work: Path) -> None:
        analysis = {"bin_width": 10.0, "hist_range": 205.0, "subtract_accidentals": "true", "t_c": 75.0}
        for label, xi in (("par", 1.0), ("perp", 0.0)):
            values = {"n_triggers": self.n_triggers, **self.physics, "xi": xi, **analysis}
            (work / f"sparse_{label}.cfg").write_text(config_text(values))

    def ops(self, work: Path, out: Path, seed: int) -> list[Op]:
        par, perp = str(out / "par" / "events.csv"), str(out / "perp" / "events.csv")
        return [
            Op("simulate_par", ["simulate", "--config", str(work / "sparse_par.cfg"),
                                "--seed", str(seed), "--out", str(out / "par"), "--workers", "1"]),
            Op("simulate_perp", ["simulate", "--config", str(work / "sparse_perp.cfg"),
                                 "--seed", str(seed + 1), "--out", str(out / "perp"), "--workers", "1"]),
            Op("analyze", ["analyze", "--par", par, "--perp", perp,
                           "--config", str(work / "sparse_par.cfg"), "--out", str(out / "ana")]),
        ]

    def cleanup(self, out: Path) -> None:
        for label in ("par", "perp"):
            shutil.rmtree(out / label, ignore_errors=True)

    def check(self, out: Path, seed: int, values: dict) -> dict:
        import homsim as h

        hists = [read_histogram_csv(out / "ana" / f"histogram_{p}.csv") for p in ("par", "perp")]
        raw = h.visibility(hists[0], hists[1], 25.0)
        if abs(raw.v - RAW_V_TARGET) > N_SIGMA * raw.sigma_v:
            return {"analyze": f"raw V {raw.v:.4f} +- {raw.sigma_v:.4f} is not within "
                               f"{N_SIGMA:g} sigma of {RAW_V_TARGET}"}
        for hist, xi, s in zip(hists, (1.0, 0.0), (seed, seed + 1)):
            cfg = h.ExperimentConfig(n_triggers=self.n_triggers, xi=xi, seed=s, **self.physics)
            pairing = h.pair_events(h.simulate(cfg))
            ref = h.histogram(pairing.delta_ts, pairing.n_triggers, 10.0, 205.0)
            if ref.n_triggers != hist.n_triggers or not np.array_equal(ref.counts, hist.counts):
                return {"analyze": f"xi={xi:g}: histogram from the event files differs "
                                   "from the in-memory histogram"}
        return {}


@dataclass
class DipDense:
    """One `homsim dip` scan at unit efficiency on two worker threads."""

    n_triggers: int = 100_000
    name: str = "dip_dense"

    @property
    def items_per_pass(self) -> int:
        return 2 * len(DIP_DELTAS) * self.n_triggers

    def sizes(self) -> dict:
        return {"n_triggers_per_run": self.n_triggers, "runs_per_pass": 2 * len(DIP_DELTAS),
                "workers": 2}

    def prepare(self, work: Path) -> None:
        values = {
            "n_triggers": self.n_triggers, "eta_f": 1.0, "eta_s": 1.0,
            "tau_f": TAU_F, "tau_s": TAU_S,
            "delta_t_list": ", ".join(f"{d:g}" for d in DIP_DELTAS),
            "dip_t_c": 490.0, "hist_range": 255.0,
        }
        (work / "dip.cfg").write_text(config_text(values))

    def ops(self, work: Path, out: Path, seed: int) -> list[Op]:
        return [Op("dip", ["dip", "--config", str(work / "dip.cfg"), "--seed", str(seed),
                           "--out", str(out), "--workers", "2"])]

    def cleanup(self, out: Path) -> None:
        pass

    def check(self, out: Path, seed: int, values: dict) -> dict:
        points = json.loads((out / "dip.json").read_text())["points"]
        if [p["delta_t"] for p in points] != list(DIP_DELTAS):
            return {"dip": "dip.json does not list the scanned delays"}
        ratio = {}
        for p in points:
            model = dip_model(p["delta_t"])
            if abs(p["model"] - model) > 1e-9:
                return {"dip": f"delta_t {p['delta_t']:g}: model {p['model']} != {model}"}
            if abs(p["ratio"] - model) > N_SIGMA * p["sigma"]:
                return {"dip": f"delta_t {p['delta_t']:g}: ratio {p['ratio']:.4f} +- "
                               f"{p['sigma']:.4f} vs model {model:.4f}"}
            ratio[p["delta_t"]] = p["ratio"]
        if not ratio[10.0] < ratio[-10.0]:
            return {"dip": "dip is not asymmetric: ratio(+10) >= ratio(-10)"}
        return {}


@dataclass
class OracleDetuned:
    """`homsim oracle --detuning 2` plus the nested-quadrature cross-check."""

    name: str = "oracle_detuned"

    @property
    def items_per_pass(self) -> int:
        return 2 * ORACLE_DENSITY_POINTS

    def sizes(self) -> dict:
        return {"density_points": 2 * ORACLE_DENSITY_POINTS, "detuning_mhz": ORACLE_DETUNING}

    def prepare(self, work: Path) -> None:
        pass

    def _pair(self):
        from homsim import interference

        return interference.SourcePair(
            interference.Envelope(TAU_F),
            interference.Envelope(TAU_S, detuning=ORACLE_DETUNING),
            1.0,
        )

    def ops(self, work: Path, out: Path, seed: int) -> list[Op]:
        from homsim import interference

        pair = self._pair()
        return [
            Op("oracle", ["oracle", "--detuning", f"{ORACLE_DETUNING:g}", "--out", str(out)]),
            Op("numeric", call=lambda: interference.coincidence_probability_numeric(pair)),
        ]

    def cleanup(self, out: Path) -> None:
        pass

    def check(self, out: Path, seed: int, values: dict) -> dict:
        from homsim import interference

        failures = {}
        rows = [line.split(",") for line in (out / "oracle.csv").read_text().splitlines()
                if line.startswith("g_perp,")]
        worst = max((abs(float(v) - g_perp_model(float(x))) for _, x, v in rows), default=math.inf)
        if len(rows) != ORACLE_DENSITY_POINTS or not worst <= 1e-8:
            failures["oracle"] = f"{len(rows)} g_perp rows, worst error {worst:.3g}"
        closed = interference.coincidence_probability(self._pair())
        numeric = values.get("numeric", math.nan)
        if not abs(numeric - closed) <= 1e-8:
            failures["numeric"] = f"numeric {numeric!r} vs closed form {closed!r}"
        return failures


WORKLOADS = {w.name: w for w in (VisibilitySparse(), DipDense(), OracleDetuned())}
