"""threshold-lab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep_foc_gap --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
Set-up time is measured first, as fresh interpreters that import
``threshold_lab.cli``.  The workload then runs in a child process
(``worker.py``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  Lines above it print each metric with its unit, the
sample counts and the environment; the full record, and with ``--trace 1``
the spans, go under ``perfbench/_results``.

Workloads, metrics and the layer each metric belongs to are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "_results"
IMPORT_PROBE = "import time; t = time.perf_counter(); import threshold_lab.cli; print(time.perf_counter() - t)"
#: cold launches per run; set-up time is their median (a single launch varies by half)
SETUP_LAUNCHES = 7
#: every run, set-up included, must end well inside three minutes
BUDGET_S = 170.0


def cold_launches(env: dict, n: int) -> tuple[list[float], list[float]]:
    """Wall time of ``n`` fresh interpreters importing the CLI, and the
    import time each measured itself."""
    # one unmeasured launch writes the bytecode caches, as an installed package has them
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True, capture_output=True, timeout=60)
    walls, imports = [], []
    for _ in range(n):
        start = perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, check=True, capture_output=True, text=True, timeout=60
        )
        walls.append(perf_counter() - start)
        imports.append(float(done.stdout.split()[-1]))
    return walls, imports


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes and two launches, for the self-test")
    args = ap.parse_args()
    started = perf_counter()

    root = Path.cwd()
    if not (root / "src" / "threshold_lab" / "cli.py").is_file():
        print(f"error: {root} has no src/threshold_lab; run from the root of a threshold-lab checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = {k: v for k, v in os.environ.items() if k != "THRESHOLD_LAB_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = RESULTS / f"{tag}.json"
    trace_path = RESULTS / f"{tag}.spans.jsonl"
    result_path.unlink(missing_ok=True)
    try:
        walls, imports = cold_launches(env, 2 if args.tiny else SETUP_LAUNCHES)
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--result", str(result_path),
             "--trace-file", str(trace_path), *(["--tiny"] if args.tiny else [])],
            env=env, capture_output=True, text=True, timeout=BUDGET_S - (perf_counter() - started),
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}\n{getattr(err, 'stderr', '') or ''}", file=sys.stderr)
        return 1
    if worker.returncode != 0 or not result_path.is_file():
        print(f"error: worker exited {worker.returncode}\n{worker.stderr}", file=sys.stderr)
        return 1

    res = json.loads(result_path.read_text(encoding="utf-8"))
    if args.trace:
        values = {**res["per_layer"], "import.cold_s": statistics.median(imports)}
    else:
        values = {**res["end_to_end"], "setup_s": statistics.median(walls)}
    env_desc = " ".join(f"{k}={v}" for k, v in res["environment"].items())
    print(f"{tag}: {res['passes']} passes, {res['op_count']} timed commands; "
          f"failed {res['failed']} of {res['attempted']} ({res['failed_translated']} in the translated slice "
          f"of {res['translated']}); failed_frac {res['failed'] / res['attempted']:.4f}")
    print(f"environment: {env_desc}; setup over {len(walls)} launches")
    for m in wanted:
        print(f"  {m['name']:<55} {values.get(m['name'], math.nan):>14.6g} {m['unit']}")
    for msg in res["problems"][:10]:
        print(f"  PROBLEM {msg}")
    # an infinite percentile means more than its share of commands failed
    missing = [m["name"] for m in wanted if not math.isfinite(values.get(m["name"], math.nan))]
    if missing:
        print(f"error: metrics missing or not finite: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    res["setup"] = {"launch_s": walls, "import_s": imports}
    res["metrics"] = metrics
    result_path.write_text(json.dumps(res, indent=2), encoding="utf-8")
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
