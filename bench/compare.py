"""Compare two result sets of the benchmark, e.g. parent vs change.

Usage: python3 bench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a ``.bench_work/results`` directory written by
``bench/run.py``. For every workload and every end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartiles, the pairs
the change won (runs of the two sides with the same seed form a pair)
and a verdict:

- ``gain``: at least 10 pairs, the change wins at least 9/10 of them
  (ties count for neither), and the medians differ in the change's
  favour by more than the parent's interquartile distance;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound (a share of the parent's median);
- ``unresolved``: neither, and the run-to-run spread (interquartile
  distance over median) of either side exceeds the bound; ``better``
  instead when every change run is better than every parent run;
- ``same``: otherwise (no regression beyond the bound).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def wins(pairs, better: str) -> int:
    """Pairs (parent, change) in which the change is strictly better."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0 for p, c in pairs)


def verdict(parent, change, pairs, better: str, bound: float) -> str:
    """Apply the gain / regression / unresolved rule to one metric."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    gap = sign * (c_med - p_med)  # > 0: the change is better
    won = wins(pairs, better)
    if len(pairs) >= MIN_PAIRS and won >= WIN_SHARE * len(pairs) and gap > p_q3 - p_q1:
        return "gain"
    if -gap > bound * abs(p_med):
        return "regression"
    if max(spread(parent), spread(change)) > bound:
        all_better = min(sign * c for c in change) > max(sign * p for p in parent)
        return "better" if all_better else "unresolved"
    return "same"


def load(results_dir) -> dict:
    """{workload: {seed: metrics}} from the untraced runs in a result directory."""
    runs: dict = {}
    for path in sorted(Path(results_dir).glob("*.trace0.json")):
        rec = json.loads(path.read_text())
        values = {name: m["value"] for name, m in rec["metrics"].items()}
        runs.setdefault(rec["workload"], {})[rec["seed"]] = values
    return runs


def compare(parent: dict, change: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        seeds = sorted(set(p_runs) & set(c_runs))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p_vals = [r[name] for r in p_runs.values()]
            c_vals = [r[name] for r in c_runs.values()]
            pairs = [(p_runs[s][name], c_runs[s][name]) for s in seeds]
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "parent": quartiles(p_vals), "change": quartiles(c_vals),
                "n": (len(p_vals), len(c_vals)),
                "wins": wins(pairs, metric["better"]), "pairs": len(pairs),
                "verdict": verdict(p_vals, c_vals, pairs, metric["better"], metric["bound"]),
            })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    parent, change = load(argv[0]), load(argv[1])
    for workload in sorted(set(parent) ^ set(change)):
        print(f"{workload}: results on one side only, not compared")
    fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"  # noqa: E731
    for row in compare(parent, change, spec):
        print(f"{row['workload']:18s} {row['metric']:16s} "
              f"parent {fmt(row['parent'])} change {fmt(row['change'])} {row['unit']:4s} "
              f"n={row['n'][0]}/{row['n'][1]} wins {row['wins']}/{row['pairs']}  {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
