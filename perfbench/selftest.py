"""Fast smoke self-test of the benchmark itself.

    python3 perfbench/selftest.py

At tiny input sizes (``run.py --smoke``) it runs every workload untraced
and traced and asserts that each metric named in BENCHMARK.json is
emitted with its unit, that outputs pass their checks, that
``metrics.json`` documents every metric, and that the benchmark refuses
to run without the program's sources.  Takes about a minute on a 2-core box.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "4", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    docs = json.loads((HERE / "metrics.json").read_text())
    problems = []
    for kind in ("end_to_end", "per_layer"):
        named = {m["name"] for m in spec[kind]}
        if named != set(docs[kind]):
            problems.append(f"metrics.json {kind} differs from BENCHMARK.json: "
                            f"{sorted(named ^ set(docs[kind]))}")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: incorrect or failed ops\n{done.stdout[-2000:]}")
            for metric in spec[kind]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{label}: {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} unit {got['unit']}")
                elif not math.isfinite(got["value"]):
                    problems.append(f"{label}: {metric['name']} = {got['value']}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[kind]}
            if extra:
                problems.append(f"{label}: unlisted metrics {sorted(extra)}")
            print(f"ok {label}", flush=True)
    # Without the program's sources the benchmark must fail, not report.
    bare = ROOT / ".perfbench_work" / f"bare-{time.time_ns()}"
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run(bare, "fit", 0)
        if done.returncode == 0 or done.stdout.strip():
            problems.append("bare directory: benchmark did not refuse to run")
        else:
            print("ok refuses to run without sources", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
