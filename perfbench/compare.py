"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py`` (its
``.perfbench_out/``).  For every workload and metric it prints both
medians, the change, each side's quartile spread and, for end-to-end
metrics, whether the change stays within the bound of BENCHMARK.json.
Results stamped with different ``nproc`` are refused: the numbers of a
2-core and an 8-core box are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]
    if not records:
        raise SystemExit(f"no result files in {directory}")
    return records


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def by_metric(records: list[dict]) -> dict:
    grouped: dict = {}
    for record in records:
        workload = record["stamp"]["workload"]
        for name, metric in record["metrics"].items():
            grouped.setdefault((workload, name), []).append(metric["value"])
    return grouped


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    nprocs = {r["stamp"]["nproc"] for r in base + new}
    if len(nprocs) != 1:
        print(f"refusing to compare results from boxes with nproc {sorted(nprocs)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    old_values, new_values = by_metric(base), by_metric(new)
    worse_than_bound = 0
    print(f"{'workload':8} {'metric':42} {'base':>12} {'new':>12} {'change':>8} "
          f"{'spread':>13}  verdict")
    for key in sorted(set(old_values) & set(new_values)):
        workload, name = key
        old_med = statistics.median(old_values[key])
        new_med = statistics.median(new_values[key])
        change = (new_med - old_med) / abs(old_med) if old_med else 0.0
        worse = -change if better.get(name) == "higher" else change
        verdict = ""
        if name in e2e:
            if worse > e2e[name]["bound"]:
                verdict = f"WORSE than bound {e2e[name]['bound']}"
                worse_than_bound += 1
            else:
                verdict = "within bound"
        print(f"{workload:8} {name:42} {old_med:12.6g} {new_med:12.6g} "
              f"{change:+8.2%} {spread(old_values[key]):6.1%}/"
              f"{spread(new_values[key]):<6.1%}  {verdict}")
    return 1 if worse_than_bound else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
