"""homsim benchmark: three CLI workloads timed end to end, plus a traced run.

Usage (from the repository root):

    python3 bench/run.py --workload visibility_sparse --seed 1 --seconds 20 --trace 0
    python3 bench/compare.py PARENT_RESULTS CHANGE_RESULTS

A run writes its configs and outputs under ``.bench_work/`` and keeps
``.bench_work/results/<workload>.seed<seed>.trace<t>.json`` (metrics,
per-pass data, environment); ``compare.py`` compares two such
directories. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` a run reports the end-to-end metrics of
``BENCHMARK.json``. The times among them are normalised to the host's
speed (see ``reference.py``): a fixed reference computation runs before
and after every timed operation, and each operation's time is scaled by
``REF_S`` over the mean of the two reference times around it.

- ``wall_norm_s``: median over passes of the normalised wall time of one
  pass (the sum over its operations);
- ``items_per_norm_s``: median per-pass throughput against that time:
  simulated triggers carried from simulation to the final result, or, on
  ``oracle_detuned``, coincidence-density grid points;
- ``setup_s``: median over fresh processes of the normalised time of
  interpreter start + ``import homsim`` + config parsing, up to the first
  layer call;
- ``peak_rss_mb``: ``ru_maxrss`` of this process after the timed passes.

The raw (unnormalised) ``wall_s``, ``items_per_s`` and setup times are
printed and kept in the result record beside them.

With ``--trace 1`` it alternates untraced and traced passes and reports
the per-layer metrics of the traced ones (see ``tracing.py``) plus
``trace.overhead_frac``; ``wavepacket.amplitude_calls`` comes from one
more pass of its own, because counting every integrand evaluation slows
the quadrature.

Every pass is checked after the timed region. An operation (a CLI
invocation, or the oracle's library cross-check) that raises, returns
non-zero or whose output fails its check counts as failed; failures never
abort the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

SETUP_PROBES = 7  # after one discarded probe that also compiles bytecode
MIN_TIMED_PASSES = 3  # per run, after the warm-up pass
PROBE_TIMEOUT_S = 60


def pass_seed(seed: int, k: int) -> int:
    """Seed of pass k; a dip pass uses 18 consecutive seeds from it."""
    return seed * 10_000 + 100 * k


@dataclass
class PassRecord:
    k: int
    kind: str  # warmup | timed | untraced | traced | count
    seed: int
    wall_s: float
    ops: list[str]
    op_s: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    layer: dict | None = None
    spans: list | None = None

    @property
    def norm_s(self) -> float:
        """Pass time normalised to the host's speed (needs reference times)."""
        return sum(reference.normalise(self.op_s, self.refs))

    def to_dict(self) -> dict:
        return {"k": self.k, "kind": self.kind, "seed": self.seed, "wall_s": self.wall_s,
                "ops": self.ops, "op_s": self.op_s, "ref_s": self.refs,
                "errors": self.errors, "layer": self.layer}


def pass_dir(work: Path, k: int) -> Path:
    return work / f"pass{k:03d}"


def run_pass(workload, work: Path, k: int, kind: str, seed: int, tracer=None,
             calibrate: bool = False) -> PassRecord:
    """Run every operation of one pass; the wall time is the sum of their times.

    With ``calibrate`` the reference computation also runs before the
    first operation and after each one, outside the operations' times.
    """
    out = pass_dir(work, k)
    out.mkdir(parents=True)
    ops = workload.ops(work, out, seed)
    rec = PassRecord(k, kind, seed, 0.0, [op.name for op in ops])
    span = tracer.span if tracer else (lambda _name: contextlib.nullcontext())
    captured = io.StringIO()
    if calibrate:
        rec.refs.append(reference.ref_time())
    with span("cli.pass"), contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        for op in ops:
            t0 = time.perf_counter()
            if rec.errors:
                rec.errors[op.name] = "not run: an earlier operation failed"
            else:
                run_op(op, rec, captured, span)
            rec.op_s.append(time.perf_counter() - t0)
            if calibrate:
                rec.refs.append(reference.ref_time())
    rec.wall_s = sum(rec.op_s)
    workload.cleanup(out)
    return rec


def run_op(op, rec: PassRecord, captured: io.StringIO, span) -> None:
    """Run one operation, recording a failure in rec.errors."""
    from homsim import cli

    try:
        if op.argv is not None:
            try:
                with span(f"cli.{op.argv[0]}"):
                    rc = cli.main(op.argv)
            except SystemExit as exc:  # argparse rejected the command line
                rc = exc.code
            if rc != 0:
                rec.errors[op.name] = f"exit code {rc}: {captured.getvalue()[-300:]}"
        else:
            rec.values[op.name] = op.call()
    except Exception as exc:  # a failing operation is counted, not fatal
        rec.errors[op.name] = f"{type(exc).__name__}: {exc}"


def check_pass(workload, work: Path, rec: PassRecord) -> None:
    """Add the output check's failures to the pass record."""
    if rec.errors:
        return
    try:
        failures = workload.check(pass_dir(work, rec.k), rec.seed, rec.values)
    except Exception as exc:  # unreadable output fails the pass's last operation
        failures = {rec.ops[-1]: f"check raised {type(exc).__name__}: {exc}"}
    rec.errors.update(failures)


def measure_setup(argv: list[str]) -> float:
    """Seconds from launching a fresh interpreter to homsim's first layer call."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), json.dumps(argv)]
    t0 = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed ({done.returncode}): {done.stderr[-500:]}")
    return float(done.stdout.split()[-1]) - t0


def git_sha(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """sha256 over homsim's source files, identifying the code under test."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "homsim").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(ROOT),
        "src_sha256": source_digest(ROOT),
    }


def median_by_key(dicts) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def timed_loop(workload, work, seed, seconds, trace) -> list[PassRecord]:
    """Warm-up pass, then cycles of passes until `seconds` would be exceeded.

    A traced run alternates which of its untraced and traced passes comes
    first, so a drift in machine speed does not bias the overhead.
    """
    passes = [run_pass(workload, work, 0, "warmup", pass_seed(seed, 0))]
    cycle = ("untraced", "traced") if trace else ("timed",)
    start = time.perf_counter()
    cycles = 0
    while True:
        for kind in cycle[::-1] if cycles % 2 else cycle:
            k = len(passes)
            tracer = tracing.Tracer() if kind == "traced" else None
            restore = tracer.install() if tracer else None
            try:
                rec = run_pass(workload, work, k, kind, pass_seed(seed, k), tracer,
                               calibrate=kind == "timed")
            finally:
                if restore:
                    restore()
            if tracer:
                rec.layer = tracing.layer_metrics(tracer.spans, tracer.counts)
                rec.spans = [s.to_dict() for s in tracer.spans]
            passes.append(rec)
        cycles += 1
        elapsed = time.perf_counter() - start
        if len(passes) > MIN_TIMED_PASSES and elapsed * (cycles + 1) / cycles > seconds:
            return passes


def count_pass(workload, work, seed, k) -> tuple[PassRecord, int]:
    """One pass with only homsim.interference.amplitude counted."""
    from homsim import interference

    counter, restore = tracing.count_calls(interference, "amplitude")
    try:
        rec = run_pass(workload, work, k, "count", pass_seed(seed, k))
    finally:
        restore()
    return rec, counter[0]


def run(workload, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, dict]:
    """Measure one workload; returns (final JSON object, full result record)."""
    tag = f"{workload.name}.seed{seed}.trace{int(trace)}"
    work = WORK / "run" / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.prepare(work)

    setup, setup_refs, raw = [], [], {}
    if not trace:
        reference.ref_time()  # warm-up
        probe_argv = workload.ops(work, work / "probe", pass_seed(seed, 0))[0].argv
        measure_setup(probe_argv)
        setup_refs.append(reference.ref_time())
        for _ in range(SETUP_PROBES):
            setup.append(measure_setup(probe_argv))
            setup_refs.append(reference.ref_time())

    passes = timed_loop(workload, work, seed, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    amplitude_calls = None
    if trace:
        rec, amplitude_calls = count_pass(workload, work, seed, len(passes))
        passes.append(rec)
    for rec in passes:
        check_pass(workload, work, rec)

    if trace:
        traced = [p for p in passes if p.kind == "traced"]
        untraced = statistics.median(p.wall_s for p in passes if p.kind == "untraced")
        values = median_by_key([p.layer for p in traced])
        values["wavepacket.amplitude_calls"] = amplitude_calls
        values["trace.overhead_frac"] = (
            statistics.median(p.wall_s for p in traced) - untraced) / untraced
        specs = spec["per_layer"]
    else:
        timed = [p for p in passes if p.kind == "timed"]
        norm = [p.norm_s for p in timed]
        values = {
            "wall_norm_s": statistics.median(norm),
            "items_per_norm_s": statistics.median(workload.items_per_pass / w for w in norm),
            "setup_s": statistics.median(reference.normalise(setup, setup_refs)),
            "peak_rss_mb": peak_rss_mb,
        }
        raw = {
            "wall_s": statistics.median(p.wall_s for p in timed),
            "items_per_s": statistics.median(workload.items_per_pass / p.wall_s for p in timed),
            "setup_raw_s": statistics.median(setup),
            "ref_s": statistics.median(r for p in timed for r in p.refs),
        }
        specs = spec["end_to_end"]
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}

    attempted = sum(len(p.ops) for p in passes)
    failed = sum(len(p.errors) for p in passes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "sizes": workload.sizes(), "items_per_pass": workload.items_per_pass,
        "pass_seeds": [p.seed for p in passes], "environment": environment(),
        "setup_samples_s": setup, "setup_ref_s": setup_refs, "unnormalised": raw,
        "ref_nominal_s": reference.REF_S, "failed_frac": failed / attempted,
        "passes": [p.to_dict() for p in passes], **result,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        spans = [{"pass": p.k, "spans": p.spans} for p in passes if p.kind == "traced"]
        (results_dir / f"{tag}.spans.json").write_text(json.dumps(spans) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return result, record


def report(record: dict) -> None:
    """Human-readable lines: every metric by name and unit, failures, environment."""
    kinds = [p["kind"] for p in record["passes"]]
    print(f"{record['workload']}  seed={record['seed']}  trace={record['trace']}  "
          f"passes={len(kinds)} ({', '.join(f'{kinds.count(k)} {k}' for k in dict.fromkeys(kinds))})  "
          f"sizes={json.dumps(record['sizes'])}")
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for name, value in record["unnormalised"].items():
        print(f"  {name:40s} {value:.6g} (not normalised)")
    print(f"  {'failed_frac':40s} {record['failed_frac']:.6g} "
          f"({record['failed']}/{record['attempted']} operations)")
    for p in record["passes"]:
        for op, err in p["errors"].items():
            print(f"  FAILED pass {p['k']} {op}: {err}")
    print(f"  environment {json.dumps(record['environment'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "homsim" / "__init__.py").is_file():
        print(f"homsim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), spec)
    report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
