"""Run one workload in a fresh interpreter and write its measurements as JSON.

``run.py`` starts this with ``PYTHONPATH`` set to the checkout's ``src`` and
``THRESHOLD_LAB_THREADS`` unset.  Commands go through
``threshold_lab.cli.run_cli`` in-process, one at a time with no think time
(a closed loop with a single client), stdout and stderr captured.  Whole
passes run for about ``--seconds``: a pass starts only if at least half of
it fits before the deadline.  Each command is timed alone;
the correctness gate runs between commands, outside the timed region.

With ``--trace 1`` every pass runs twice on the same inputs, once plain and
once with the layer functions wrapped in spans; the plain copy is the base
of the tracing overhead, and both copies must write byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from threshold_lab import cli

import gate
import workloads as W
from tracer import Tracer

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)
    failed: list[bool] = field(default_factory=list)
    translated: list[bool] = field(default_factory=list)
    commands: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)  # outside the translated slice
    translated_problems: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    swept: int = 0  # samples of the sweeps that succeeded
    sweep_s: float = 0.0  # their latency
    csv_bytes: list[int] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def run_command(argv: list[str]) -> tuple[int, float, str]:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = perf_counter()
        try:
            code = cli.run_cli(argv)
        except Exception:  # an escaped exception is a failed command, not a stopped benchmark
            code = -1
            sink.write(traceback.format_exc())
        elapsed = perf_counter() - start
    return code, elapsed, sink.getvalue()


def digest(out_dir: Path, text: str) -> str:
    h = hashlib.sha256(text.encode())
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_op(op: W.Op, slot: str, work: Path) -> tuple[int, float, Path, str]:
    config_path = work / f"{slot}.json"
    out_dir = work / slot
    shutil.rmtree(out_dir, ignore_errors=True)
    W.write_config(op, config_path)
    code, elapsed, text = run_command(op.argv(config_path, out_dir))
    return code, elapsed, out_dir, text


def run_pass(ops, work: Path, seed: int, pass_index: int, tracer: Tracer | None, keep_digests: bool) -> PassResult:
    res = PassResult()
    outputs: dict[int, object] = {}
    for j, op in enumerate(ops):
        if tracer is not None:
            tracer.op = pass_index * len(ops) + j
        code, elapsed, out_dir, text = run_op(op, f"op{j}", work)
        problems: list[str] = []
        if code != 0:
            problems.append(f"exit {code}: {text.strip().splitlines()[-1] if text.strip() else ''}")
        elif op.command == "sweep":
            rng = np.random.default_rng([seed, pass_index, j])
            problems = gate.check_sweep(out_dir, op.config, op.mode, rng)
            res.csv_bytes.append((out_dir / "samples.csv").stat().st_size)
        else:
            data = gate.read_model_output(op.command, out_dir)
            if not op.translated:
                problems = gate.check_model_output(op.command, data)
                outputs[j] = data
            elif op.twin in outputs:
                problems = gate.check_twin(op.command, data, outputs[op.twin], op.shift)
            else:
                problems = ["untranslated twin failed"]
        if op.command == "sweep" and not problems:
            res.swept += op.n_samples
            res.sweep_s += elapsed
        if keep_digests:
            res.digests.append(digest(out_dir, text))
        res.latencies.append(elapsed)
        res.failed.append(bool(problems))
        res.translated.append(op.translated)
        res.commands.append(op.command)
        where = f"pass {pass_index} op {j} {op.command}"
        (res.translated_problems if op.translated else res.problems).extend(f"{where}: {p}" for p in problems)
    return res


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "THRESHOLD_LAB_THREADS": os.environ.get("THRESHOLD_LAB_THREADS", "unset"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes, for the self-test")
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--trace-file", type=Path, required=True)
    args = ap.parse_args()

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    problems: list[str] = []

    code, _, _, text = run_op(W.warmup_op(args.workload), "warmup", work)
    if code != 0:
        problems.append(f"warm-up command failed: {text.strip()[-300:]}")

    plain: list[PassResult] = []
    traced: list[PassResult] = []
    tracer = Tracer()
    deadline = perf_counter() + args.seconds
    p = 0
    last_pass_s = 0.0
    # a further pass starts only if at least half of it fits before the deadline,
    # so a run measures about --seconds whatever a pass costs
    while p == 0 or deadline - perf_counter() > last_pass_s / 2:
        began = perf_counter()
        ops = W.make_pass(args.workload, args.seed, p, args.tiny)
        if not args.trace:
            plain.append(run_pass(ops, work, args.seed, p, None, False))
        else:
            # alternate which copy runs first so warm caches favour neither
            for traced_copy in ((False, True) if p % 2 == 0 else (True, False)):
                if traced_copy:
                    with tracer.patched():
                        traced.append(run_pass(ops, work, args.seed, p, tracer, True))
                else:
                    plain.append(run_pass(ops, work, args.seed, p, None, True))
            if plain[-1].digests != traced[-1].digests:
                problems.append(f"pass {p}: outputs differ with tracing on")
        last_pass_s = perf_counter() - began
        p += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for name, op in W.reference_ops(args.workload):
        code, _, out_dir, text = run_op(op, f"reference-{name}", work)
        problems += gate.check_reference(name, out_dir) if code == 0 else [f"{name}: reference sweep failed"]

    runs = plain + traced
    latencies = [t for r in plain for t in r.latencies]
    late = [math.inf if bad else t for r in plain for t, bad in zip(r.latencies, r.failed)]
    failed = sum(sum(r.failed) for r in runs)
    failed_translated = sum(bad and tr for r in runs for bad, tr in zip(r.failed, r.translated))
    # a failure outside the translated slice means a wrong or missing answer
    problems += [msg for r in runs for msg in r.problems]
    successes = sum(not bad for r in plain for bad in r.failed)
    swept = sum(r.swept for r in plain)
    sweep_s = sum(r.sweep_s for r in plain)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "passes": len(plain),
        "pass_wall_s": [r.wall_s for r in plain],
        "attempted": sum(len(r.latencies) for r in runs),
        "failed": failed,
        "failed_translated": failed_translated,
        "translated": sum(sum(r.translated) for r in runs),
        "problems": problems,
        "translated_problems": [msg for r in runs for msg in r.translated_problems][:20],
        "op_count": len(latencies),
        "end_to_end": {
            "wall_s": statistics.median(r.wall_s for r in plain),
            "samples_per_s": swept / sweep_s if swept else successes / sum(latencies),
            "op_p50_s": statistics.median(late),
            "op_p90_s": nearest_rank(late, 0.9),
            "peak_rss_mb": peak_rss_mb,
        },
        "per_command_p50_s": {
            cmd: nearest_rank([t for r in plain for t, c in zip(r.latencies, r.commands) if c == cmd], 0.5)
            for cmd in sorted({c for r in plain for c in r.commands})
        },
    }
    if args.trace:
        wall = sum(r.wall_s for r in traced)
        layers = tracer.layer_metrics(wall, sum(len(r.latencies) for r in traced))
        csv_bytes = [b for r in plain for b in r.csv_bytes]
        layers["output.samples_csv_bytes"] = statistics.mean(csv_bytes) if csv_bytes else 0.0
        layers["trace.overhead_frac"] = wall / sum(r.wall_s for r in plain) - 1.0
        result["per_layer"] = layers
        result["span_totals"] = tracer.totals()
        tracer.write(args.trace_file)

    shutil.rmtree(work, ignore_errors=True)
    args.result.parent.mkdir(parents=True, exist_ok=True)
    args.result.write_text(json.dumps(result, indent=2), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
