"""ACTOR benchmark: ``fit``, ``serve`` and ``stream`` workloads.

    python3 perfbench/run.py --workload serve --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones (a separate, traced run).  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report and a stamp (code digest, nproc, Python and NumPy
versions, seed).  The full result, with the stamp and the benchmark's
own phase spans, is also written under ``.perfbench_out/`` for
``perfbench/compare.py``.  ``--smoke`` runs tiny inputs for the
self-test (``perfbench/selftest.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit", "serve", "stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the self-test only")
    return parser.parse_args(argv)


def code_digest() -> str:
    """sha256 over the program's sources: identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def stamp(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "code_sha256": code_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still unwinds, so the servers it started are stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path[:0] = [str(SRC), str(HERE)]

    import numpy

    import pipeline

    info = stamp(args, numpy.__version__)
    sizes = pipeline.SMOKE if args.smoke else pipeline.FULL
    ctx = {"root": ROOT, "src": str(SRC), "nproc": info["nproc"]}
    out = pipeline.Outcome()
    try:
        pipeline.WORKLOADS[args.workload](
            out, sizes, args.seed, args.seconds,
            traced=bool(args.trace), ctx=ctx,
        )
    except Exception:  # noqa: BLE001 - report and exit without a result
        traceback.print_exc()
        return 1

    missing = [m["name"] for m in wanted if m["name"] not in out.metrics]
    wrong_unit = [
        m["name"] for m in wanted
        if m["name"] in out.metrics and out.metrics[m["name"]][1] != m["unit"]
    ]
    if missing or wrong_unit:
        print(f"benchmark bug: missing {missing}, wrong unit {wrong_unit}",
              file=sys.stderr)
        return 1

    for note in out.notes:
        print(f"# {note}")
    for problem in out.problems:
        print(f"# FAILED CHECK: {problem}")
    width = max(len(m["name"]) for m in wanted)
    for m in wanted:
        value, unit = out.metrics[m["name"]]
        print(f"{m['name']:<{width}}  {value:14.6g} {unit}")
    for name, (value, unit) in sorted(out.metrics.items()):
        if name not in {m["name"] for m in wanted}:
            print(f"# also measured, not gated: {name} {value:.6g} {unit}")
    print(f"# failed_ratio {out.failed / max(1, out.attempted):.6g} "
          f"({out.failed} of {out.attempted})")
    print("# stamp " + json.dumps(info, sort_keys=True))

    result = {
        "correct": out.failed == 0,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": {
            m["name"]: {"value": out.metrics[m["name"]][0],
                        "unit": out.metrics[m["name"]][1]}
            for m in wanted
        },
    }
    record_dir = ROOT / ".perfbench_out"
    record_dir.mkdir(exist_ok=True)
    record = dict(result, stamp=info, notes=out.notes, problems=out.problems,
                  spans=out.spans,
                  all_metrics={k: {"value": v, "unit": u}
                               for k, (v, u) in sorted(out.metrics.items())})
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (record_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
