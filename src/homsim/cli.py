"""Command-line front end: oracle | simulate | analyze | dip.

Run configurations are plain-text key = value files (units: ns, MHz, ps;
see `homsim --dump-config`). Unknown keys are rejected so typos fail
loudly. Exit codes: 0 success, 1 configuration error, 2 data-format
error, 3 insufficient statistics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import analysis, interference, io, montecarlo
from .errors import ConfigError, DataFormatError, InsufficientStatisticsError

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected a boolean, got {text!r}") from None


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
    # analysis
    "bin_width": (float, 10.0),
    "valid_window": (float, 85.0),
    "hist_range": (float, 205.0),
    "t_c": (float, 25.0),  # half-width of the visibility window
    "wing_low": (float, 100.0),
    "wing_high": (float, 200.0),
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
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values: dict = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        parser, _ = CONFIG_KEYS[key]
        try:
            values[key] = parser(text.strip())
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
    for key, (_, default) in CONFIG_KEYS.items():
        values.setdefault(key, default)
    return values


def _require(cfg: dict, keys) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")


def _experiment_config(cfg: dict, seed=None, xi=None, delta_t=None):
    kwargs = {f.name: cfg[f.name] for f in _SIM_FIELDS}
    if seed is not None:
        kwargs["seed"] = seed
    if xi is not None:
        kwargs["xi"] = xi
    if delta_t is not None:
        kwargs["delta_t"] = delta_t
    try:
        return montecarlo.ExperimentConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ConfigError(
            f"bad grid {text!r}, expected START:STOP:STEP"
        ) from None
    if step <= 0.0 or hi < lo:
        raise ConfigError(f"bad grid {text!r}: need STOP >= START and STEP > 0")
    return np.arange(lo, hi + 0.5 * step, step)


def cmd_oracle(args) -> int:
    try:
        vis = interference.visibility_closed_form(args.tau_s, args.tau_f)
    except ValueError as exc:
        raise ConfigError(f"tau_s/tau_f: {exc}") from None
    if not 0.0 <= args.xi <= 1.0:
        raise ConfigError(f"xi: must lie in [0, 1], got {args.xi}")
    dip_grid = _parse_grid(args.delta_t)
    dens_grid = _parse_grid(args.density_range)

    env_f = interference.Envelope(args.tau_f)
    env_s = interference.Envelope(args.tau_s, detuning=args.detuning)
    pair_perp = interference.SourcePair(env_f, env_s, 0.0)
    pair_par = interference.SourcePair(env_f, env_s, args.xi)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    params = {
        "tau_s": args.tau_s,
        "tau_f": args.tau_f,
        "xi": args.xi,
        "detuning": args.detuning,
        "delta_t": args.delta_t,
        "density_range": args.density_range,
    }
    curves = {
        name: (dens_grid, [interference.coincidence_density(pair, dt) for dt in dens_grid])
        for name, pair in (("g_perp", pair_perp), ("g_par", pair_par))
    }
    curves["dip_ratio"] = (
        dip_grid, [interference.dip_ratio(d, args.tau_s, args.tau_f) for d in dip_grid]
    )
    path = analysis.write_oracle(curves, vis, out, io.config_hash(params))
    print(f"visibility = {vis:.4f}")
    print(f"wrote {path}")
    return 0


def cmd_simulate(args) -> int:
    cfg = parse_config_file(args.config)
    _require(cfg, ["n_triggers"])
    config = _experiment_config(cfg, seed=args.seed)
    stream = montecarlo.simulate(config, workers=args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"config": config.to_dict()}
    meta["config_hash"] = io.config_hash(meta["config"])
    path = io.write_events(stream, out / "events.csv", metadata=meta)
    print(f"wrote {path} ({len(stream)} records) and {io.sidecar_path(path)}")
    return 0


@contextlib.contextmanager
def _config_keys(*keys):
    """Report a ValueError that analysis raises for the values of the
    config `keys` as a ConfigError naming them."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{'/'.join(keys)}: {exc}") from None


def _check_analysis(cfg: dict, t_c_key: str, t_c: float) -> None:
    """Run analysis's own checks of the validity window on no clicks, and
    of the binning, the visibility window half-width `t_c` (from config key
    `t_c_key`) and the wings on an empty histogram, before any events are
    made or read."""
    no_ticks = np.empty(0, dtype=np.int64)
    with _config_keys("valid_window"):
        analysis.pair_clicks(
            no_ticks, (no_ticks, no_ticks), (no_ticks, no_ticks), cfg["valid_window"], 125.0
        )
    with _config_keys("bin_width", "hist_range"):
        empty = analysis.histogram([], 1, cfg["bin_width"], cfg["hist_range"])
    with _config_keys(t_c_key):
        empty.window_bins(t_c)
    if cfg["subtract_accidentals"]:
        with _config_keys("wing_low", "wing_high"):
            analysis.estimate_accidentals(empty, wing=(cfg["wing_low"], cfg["wing_high"]))


def _build_histogram(stream, cfg):
    pairing = analysis.pair_events(stream, cfg["valid_window"])
    if pairing.n_triggers == 0:
        raise InsufficientStatisticsError("event stream contains no trigger records")
    return analysis.histogram(
        pairing.delta_ts, pairing.n_triggers, cfg["bin_width"], cfg["hist_range"]
    )


def cmd_analyze(args) -> int:
    cfg = parse_config_file(args.config)
    _check_analysis(cfg, "t_c", cfg["t_c"])
    stream_par = io.read_events(args.par)
    stream_perp = io.read_events(args.perp)
    h_par = _build_histogram(stream_par, cfg)
    h_perp = _build_histogram(stream_perp, cfg)
    g_acc = 0.0
    if cfg["subtract_accidentals"]:
        g_acc = analysis.estimate_accidentals(
            h_par, h_perp, wing=(cfg["wing_low"], cfg["wing_high"])
        )
    result = analysis.visibility(h_par, h_perp, cfg["t_c"], g_acc)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    chash = io.config_hash(cfg)
    analysis.write_histogram_csv(h_par, out / "histogram_par.csv", chash)
    analysis.write_histogram_csv(h_perp, out / "histogram_perp.csv", chash)
    extra = {
        "n_triggers_par": h_par.n_triggers,
        "n_triggers_perp": h_perp.n_triggers,
    }
    for name, path in (("source_par", args.par), ("source_perp", args.perp)):
        meta = io.read_sidecar(path)
        if meta and "config_hash" in meta:
            extra[f"{name}_config_hash"] = meta["config_hash"]
    analysis.write_visibility_json(result, out / "visibility.json", chash, extra)
    print(f"V = {result.v:.4f} +- {result.sigma_v:.4f} "
          f"(T_c = +-{result.t_c:g} ns, g_acc = {result.g_acc:.4g})")
    return 0


def cmd_dip(args) -> int:
    cfg = parse_config_file(args.config)
    _require(cfg, ["n_triggers"])
    deltas = cfg["delta_t_list"]
    if not deltas:
        raise ConfigError("delta_t_list is empty; nothing to scan")
    _check_analysis(cfg, "dip_t_c", 0.5 * cfg["dip_t_c"])
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
    points = analysis.dip_curve(
        list(zip(deltas, hists[0::2], hists[1::2])),
        t_c=cfg["dip_t_c"],
        subtract_accidentals=cfg["subtract_accidentals"],
        wing=(cfg["wing_low"], cfg["wing_high"]),
    )
    model = [interference.dip_ratio(p.delta_t, cfg["tau_s"], cfg["tau_f"]) for p in points]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    chash = io.config_hash(cfg)
    path, _ = analysis.write_dip(points, model, out, chash)
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
    p.add_argument("--tau-s", type=float, default=26.18)
    p.add_argument("--tau-f", type=float, default=13.61)
    p.add_argument("--xi", type=float, default=1.0)
    p.add_argument("--detuning", type=float, default=0.0, help="MHz")
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
