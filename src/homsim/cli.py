"""Command-line front end: oracle | simulate | analyze | dip.

Run configurations are plain-text key = value files (units: ns, MHz, ps;
see `homsim --dump-config`). Unknown keys, and keys given twice, are
rejected so typos fail loudly. Exit codes: 0 success, 1 configuration
error, 2 data-format error, 3 insufficient statistics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, interference, io, montecarlo
from .errors import ConfigError, DataFormatError, InsufficientStatisticsError

_MAX_GRID = 10**6  # points of an oracle grid, each evaluated in Python
_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


def _parse_float_list(text: str) -> list[float]:
    items = [s for s in text.replace(",", " ").split() if s]
    return [float(s) for s in items]


_SIM_FIELDS = dataclasses.fields(montecarlo.ExperimentConfig)
_FIELD_PARSERS = {"int": int, "float": float}

# key -> (parser, default); defaults of None mean "required when used"
CONFIG_KEYS = {
    # simulation: the fields and defaults of montecarlo.ExperimentConfig
    **{
        f.name: (
            _FIELD_PARSERS[f.type],
            None if f.default is dataclasses.MISSING else f.default,
        )
        for f in _SIM_FIELDS
    },
    # analysis: the library's defaults
    "bin_width": (float, analysis._BIN_WIDTH),
    "valid_window": (float, analysis._VALID_WINDOW),
    "hist_range": (float, analysis._HALF_RANGE),
    "t_c": (float, 25.0),  # half-width of the visibility window
    "wing_low": (float, analysis._WING[0]),
    "wing_high": (float, analysis._WING[1]),
    "subtract_accidentals": (_parse_bool, False),
    # dip scan
    "delta_t_list": (_parse_float_list, []),
    "dip_t_c": (float, 150.0),  # total window length
}


def default_config_text() -> str:
    lines = ["# homsim run configuration (times ns, detuning MHz, resolution ps)"]
    for key, (parser, default) in CONFIG_KEYS.items():
        if default is None:
            value = "1000" if key == "n_triggers" else ""
        elif parser is _parse_bool:
            value = "true" if default else "false"
        elif parser is _parse_float_list:
            value = ", ".join(f"{v:g}" for v in default)
        else:
            value = f"{default:g}" if isinstance(default, float) else str(default)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def parse_config_file(path) -> dict:
    """Read a key = value config file, applying defaults and type checks."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:  # a directory, say
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8 text: {path}: {exc}") from None
    values: dict = {}
    first_lines: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_lines:
            raise ConfigError(
                f"{path}:{lineno}: config key {key!r} given again "
                f"(first on line {first_lines[key]})"
            )
        first_lines[key] = lineno
        parser, _ = CONFIG_KEYS[key]
        try:
            values[key] = parser(text.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    for key, (_, default) in CONFIG_KEYS.items():
        values.setdefault(key, default)
    return values


def _require(cfg: dict, keys) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {workers}")


def _out_dir(text: str):
    """Check the output directory `text` (--out) before any event is made
    or read; returns the call that makes it where the command writes, so
    that a command that fails first leaves no directory behind."""
    out = Path(text)
    if out.exists() and not out.is_dir():
        raise ConfigError(f"--out {text}: exists and is not a directory")

    def make() -> Path:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {text}: cannot make the directory: {exc.strerror}") from None
        return out

    return make


def _experiment_config(cfg: dict, seed=None, xi=None, delta_t=None):
    kwargs = {f.name: cfg[f.name] for f in _SIM_FIELDS}
    if seed is not None:
        kwargs["seed"] = seed
    if xi is not None:
        kwargs["xi"] = xi
    if delta_t is not None:
        kwargs["delta_t"] = delta_t
    return montecarlo.ExperimentConfig(**kwargs)


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ConfigError(f"bad grid {text!r}, expected START:STOP:STEP") from None
    stop = hi + 0.5 * step  # np.arange's bound, which keeps hi
    if not all(map(math.isfinite, (lo, stop, step))) or step <= 0.0 or hi < lo:
        raise ConfigError(f"bad grid {text!r}: need finite STOP >= START and STEP > 0")
    points = (hi - lo) / step + 1.0  # np.arange's count, to within one
    if points > _MAX_GRID:
        raise ConfigError(f"bad grid {text!r}: about {points:.3g} points, more than {_MAX_GRID}")
    grid = np.arange(lo, stop, step)
    # a STEP below the float spacing of STOP leaves np.arange no point, or too few
    if abs(grid.size - points) >= 1.0:
        raise ConfigError(f"bad grid {text!r}: STEP is below the float spacing: "
                          f"{grid.size} points, not {points:.6g}")
    return grid


@contextlib.contextmanager
def _config_keys(*keys):
    """Report a ValueError that the library raises for the values of the
    config keys or options `keys` as a ConfigError naming them."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{'/'.join(keys)}: {exc}") from None


def cmd_oracle(args) -> int:
    make_out = _out_dir(args.out)
    # the model parameters are checked as a run's are, with a placeholder trigger
    pair_par = montecarlo.ExperimentConfig(
        n_triggers=1, tau_s=args.tau_s, tau_f=args.tau_f, xi=args.xi, detuning=args.detuning,
    ).source_pair()
    pair_perp = dataclasses.replace(pair_par, xi=0.0)
    vis = interference.visibility_closed_form(args.tau_s, args.tau_f)
    dip_grid = _parse_grid(args.delta_t)
    for end in (dip_grid.min(initial=0.0), dip_grid.max(initial=0.0)):  # 0 if empty
        interference._check_bound("delta_t", float(end), "delay", ConfigError)
    dens_grid = _parse_grid(args.density_range)

    out = make_out()
    params = {
        "tau_s": args.tau_s,
        "tau_f": args.tau_f,
        "xi": args.xi,
        "detuning": args.detuning,
        "delta_t": args.delta_t,
        "density_range": args.density_range,
    }
    points = [
        *((name, x, interference.coincidence_density(pair, x))
          for name, pair in (("g_perp", pair_perp), ("g_par", pair_par)) for x in dens_grid),
        *(("dip_ratio", d, interference.dip_ratio(d, args.tau_s, args.tau_f)) for d in dip_grid),
    ]
    rows = [(name, f"{x:.15g}", f"{value:.12g}") for name, x, value in points]
    rows.append(("visibility", "", f"{vis:.12g}"))
    path = io.write_table(
        out / "oracle.csv", {"config_hash": io.config_hash(params)},
        ("quantity", "x_ns", "value"), rows,
    )
    print(f"visibility = {vis:.4f}")
    print(f"wrote {path}")
    return 0


def cmd_simulate(args) -> int:
    _check_workers(args.workers)
    make_out = _out_dir(args.out)
    cfg = parse_config_file(args.config)
    _require(cfg, ["n_triggers"])
    config = _experiment_config(cfg, seed=args.seed)
    out = make_out()
    meta = {"config": dataclasses.asdict(config)}
    # the frames are generated as write_events asks for them
    frames = montecarlo.simulate_frames(config, workers=args.workers)
    path = io.write_events(frames, out / "events.csv", metadata=meta)
    n_records = io.read_sidecar(path)["n_records"]
    print(f"wrote {path} ({n_records} records) and {io.sidecar_path(path)}")
    return 0


def _check_analysis(cfg: dict, t_c_key: str, t_c: float):
    """Run the library's own checks of the validity window's length, and
    of the binning, the visibility window half-width `t_c` (from config key
    `t_c_key`) and the wings on an empty histogram, before any events are
    made or read; returns the accidental correction's wing, or None."""
    with _config_keys("valid_window"):  # a check of the length alone, at any tick
        io._whole_ticks(cfg["valid_window"], 1000.0, "valid_window")
    with _config_keys("bin_width", "hist_range"):
        empty = analysis.histogram([], 1, cfg["bin_width"], cfg["hist_range"])
    with _config_keys(t_c_key):
        empty.window_bins(t_c)
    wing = (cfg["wing_low"], cfg["wing_high"]) if cfg["subtract_accidentals"] else None
    if wing is not None:
        with _config_keys("wing_low", "wing_high"):
            analysis.estimate_accidentals(empty, wing=wing)
    return wing


def cmd_analyze(args) -> int:
    make_out = _out_dir(args.out)
    cfg = parse_config_file(args.config)
    wing = _check_analysis(cfg, "t_c", cfg["t_c"])
    for path in (args.par, args.perp):
        if not Path(path).is_file():
            raise ConfigError(f"event file not found: {path}")
    h_par, h_perp = (
        analysis.histogram_frames(
            io.read_frames(path), cfg["valid_window"], cfg["bin_width"], cfg["hist_range"]
        )
        for path in (args.par, args.perp)
    )
    g_acc = None if wing is None else analysis.estimate_accidentals(h_par, h_perp, wing=wing)
    result = analysis.visibility(h_par, h_perp, cfg["t_c"], g_acc)

    out = make_out()
    chash = io.config_hash(cfg)
    payload = {**dataclasses.asdict(result), "config_hash": chash}
    for name, h, path in (("par", h_par, args.par), ("perp", h_perp, args.perp)):
        io.write_table(
            out / f"histogram_{name}.csv", {"config_hash": chash, "n_triggers": h.n_triggers},
            ("bin_center_ns", "counts", "value"),
            ((f"{c:.15g}", int(n), f"{v:.12g}")
             for c, n, v in zip(h.bin_centers, h.counts, h.values)),
        )
        payload[f"n_triggers_{name}"] = h.n_triggers
        meta = io.read_sidecar(path)
        if meta and "config_hash" in meta:
            payload[f"source_{name}_config_hash"] = meta["config_hash"]
    io.write_json(payload, out / "visibility.json")
    print(f"V = {result.v:.4f} +- {result.sigma_v:.4f} "
          f"(T_c = +-{result.t_c:g} ns, g_acc = {result.g_acc:.4g})")
    return 0


def cmd_dip(args) -> int:
    _check_workers(args.workers)
    make_out = _out_dir(args.out)
    cfg = parse_config_file(args.config)
    _require(cfg, ["n_triggers"])
    deltas = cfg["delta_t_list"]
    if not deltas:
        raise ConfigError("delta_t_list is empty; nothing to scan")
    t_c = 0.5 * cfg["dip_t_c"]  # dip_t_c is the window's total length
    wing = _check_analysis(cfg, "dip_t_c", t_c)
    base_seed = args.seed if args.seed is not None else cfg["seed"]

    # Per delay, a parallel (xi = 1) and a perpendicular (xi = 0) run.
    configs = [
        _experiment_config(cfg, seed=base_seed + 2 * k + j, xi=xi, delta_t=delta_t)
        for k, delta_t in enumerate(deltas)
        for j, xi in enumerate((1.0, 0.0))
    ]
    hists = montecarlo.simulate_histograms(
        configs, cfg["valid_window"], cfg["bin_width"], cfg["hist_range"],
        workers=args.workers,
    )
    points = analysis.dip_curve(list(zip(deltas, hists[0::2], hists[1::2])), t_c, wing)
    model = [interference.dip_ratio(p.delta_t, cfg["tau_s"], cfg["tau_f"]) for p in points]

    out = make_out()
    chash = io.config_hash(cfg)
    path = io.write_table(
        out / "dip.csv", {"config_hash": chash}, ("delta_t_ns", "ratio", "sigma", "model_ratio"),
        ((f"{p.delta_t:.15g}", f"{p.ratio:.12g}", f"{p.sigma:.12g}", f"{m:.12g}")
         for p, m in zip(points, model)),
    )
    json_points = [
        {"delta_t": p.delta_t, "ratio": p.ratio, "sigma": p.sigma, "model": m}
        for p, m in zip(points, model)
    ]
    io.write_json({"config_hash": chash, "points": json_points}, out / "dip.json")
    print("delta_t_ns  ratio    sigma    model")
    for p, m in zip(points, model):
        print(f"{p.delta_t:10g}  {p.ratio:.4f}  {p.sigma:.4f}  {m:.4f}")
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homsim",
        description="Two-photon interference simulator and coincidence analyzer",
    )
    parser.add_argument(
        "--dump-config", action="store_true",
        help="print a config file template and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("oracle", help="tabulate the analytic model")
    # the model's defaults are montecarlo.ExperimentConfig's, as in a config file
    for key in ("tau_s", "tau_f", "xi", "detuning"):
        p.add_argument("--" + key.replace("_", "-"), type=float, default=CONFIG_KEYS[key][1],
                       help="MHz" if key == "detuning" else None)
    p.add_argument("--delta-t", default="-40:40:5", help="dip delay grid START:STOP:STEP (ns)")
    p.add_argument("--density-range", default="-100:100:2",
                   help="coincidence-density grid START:STOP:STEP (ns)")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="generate a timestamped event file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=".")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="coincidence analysis of two event files")
    p.add_argument("--par", required=True, help="parallel (interfering) event file")
    p.add_argument("--perp", required=True, help="perpendicular (non-interfering) event file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("dip", help="simulate and analyze a delay scan")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=".")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_dip)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.dump_config:
        sys.stdout.write(default_config_text())
        return 0
    if not getattr(args, "command", None):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataFormatError as exc:
        print(f"data format error: {exc}", file=sys.stderr)
        return 2
    except InsufficientStatisticsError as exc:
        print(f"insufficient statistics: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
