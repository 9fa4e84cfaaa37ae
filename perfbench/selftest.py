"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout.  A tiny-size run of every workload, plain
and traced, must print every metric of ``BENCHMARK.json`` as a finite
number with a passing gate; and the sweep gate must reject tampered copies
of a ``samples.csv``.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import workloads as W  # noqa: E402
from worker import WORK, run_op  # noqa: E402

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def tiny_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in W.WORKLOADS:
        for trace in (0, 1):
            wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=170,
            )
            what = f"{workload} trace {trace}"
            if done.returncode != 0:
                check(False, f"{what}: exit {done.returncode}\n{done.stderr[-2000:]}")
                continue
            res = json.loads(done.stdout.strip().splitlines()[-1])
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{what}: result keys")
            check(res["correct"] and res["attempted"] >= 1, f"{what}: gate passes")
            check(list(res["metrics"]) == wanted, f"{what}: every named metric")
            check(all(math.isfinite(m["value"]) for m in res["metrics"].values()), f"{what}: metrics finite")


def tampered_csv_rejected() -> None:
    work = WORK / "selftest"
    op = W.Op("sweep", W.sweep_config("location", 300), ["--seed", "5"])
    code, _, out_dir, _ = run_op(op, "sweep", work)
    check(code == 0, "tiny sweep runs")

    def gate_on(edit) -> list[str]:
        copy = work / "tampered"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(out_dir, copy)
        header, rows = gate.read_samples(copy / "samples.csv")
        edit(rows)
        with (copy / "samples.csv").open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header, *rows])
        return gate.check_sweep(copy, op.config, op.mode, np.random.default_rng(0))

    check(gate_on(lambda rows: None) == [], "gate passes an untouched copy")

    def flip_flag(rows):
        rows[0][-1] = "1" if rows[0][-1] == "0" else "0"

    def nudge_foc_gap(rows):
        for r in rows:
            r[1] = repr(math.nextafter(float(r[1]), math.inf))

    def drop_row(rows):
        del rows[7]

    for name, edit in (("flipped flag", flip_flag), ("foc_gap off by one ulp", nudge_foc_gap), ("dropped row", drop_row)):
        check(gate_on(edit) != [], f"gate rejects a samples.csv with a {name}")
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    tampered_csv_rejected()
    tiny_runs()
    print("selftest:", "FAILED" if failures else "ok")
    raise SystemExit(1 if failures else 0)
