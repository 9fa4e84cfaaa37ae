"""Spans around the layer functions of threshold_lab, patched in from outside.

``threshold_lab.cli``, ``genericity`` and ``optimize`` call their layers by
module-global name, so replacing those names with timing wrappers records a
span per call without editing the package.  Spans stay in memory and are
written to the benchmark's own trace file at the end of the run; they never
touch the program's outputs.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from threshold_lab.equilibrium import deu_pos

#: module -> the global names wrapped in it
PATCHED = {
    "threshold_lab.cli": (
        "run_cli",
        "load_config",
        "load_config_dict",
        "check_admissible",
        "normalize_pair",
        "certify",
        "coincidence_fraction",
        "scaling_report",
        "compliance_optimal",
        "accuracy_optimal",
        "equivalence_test",
        "equilibrium_table",
        "write_equilibrium_csv",
        "write_json",
        "write_sweep_csv",
        "write_xy",
        "sweep_summary",
        "eu_pos",
    ),
    # per-sample optimum in threshold_distance mode
    "threshold_lab.genericity": ("accuracy_optimal",),
    # the optima that equivalence_test recomputes
    "threshold_lab.optimize": ("compliance_optimal", "accuracy_optimal"),
}

ROOT = "cli.run_cli"


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records ``[name, start, end, parent, op]`` spans; ``op`` groups the
    spans of one CLI command."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self.sweep_samples: list[tuple[int, int]] = []  # (span id, n_samples)
        self.optima: list[tuple[int, object, object]] = []  # (op, model, OptResult)
        self._stack: list[int] = []

    def _wrap(self, fn):
        name = _span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "genericity.coincidence_fraction":
                span_name = f"{name}.{args[0].family.kind}"
            sid = len(self.spans)
            span = [span_name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op]
            self.spans.append(span)
            self._stack.append(sid)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if name == "optimize.accuracy_optimal":
                self.optima.append((self.op, args[0], result))
            elif name == "genericity.coincidence_fraction":
                self.sweep_samples.append((sid, result.n_samples))
            return result

        return traced

    @contextmanager
    def patched(self):
        saved = []
        try:
            for module_name, names in PATCHED.items():
                module = importlib.import_module(module_name)
                for attr in names:
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "op": op, "name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")

    def totals(self) -> dict[str, dict]:
        """Per span name: call count, inclusive and self seconds.

        Self time is a span's duration minus its direct children's, so the
        self times of all spans add up to the root spans' total.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["inclusive_s"] += end - start
            t["self_s"] += end - start - child[sid]
        return out

    def layer_metrics(self, wall_s: float, n_ops: int) -> dict[str, float]:
        """The per-layer metrics of the traced commands.

        ``wall_s`` is the traced commands' summed latency and ``n_ops`` their
        number.  Layers every workload calls are given in seconds per
        command; layers only some workloads call are given as their share of
        ``wall_s``, which is 0 where the layer is not called.
        """
        totals = self.totals()

        def incl(*names):
            return sum(totals[n]["inclusive_s"] for n in names if n in totals)

        def per_op(*names):
            return incl(*names) / n_ops

        def share(*names):
            return incl(*names) / wall_s

        kernel_s = sum(self.spans[sid][2] - self.spans[sid][1] for sid, _ in self.sweep_samples)
        n_swept = sum(n for _, n in self.sweep_samples)
        calls_by_op: dict[int, int] = {}
        for op, _, _ in self.optima:
            calls_by_op[op] = calls_by_op.get(op, 0) + 1
        finite = [(m, r.threshold) for _, m, r in self.optima if math.isfinite(r.threshold)]
        misses = sum(abs(deu_pos(m, t)) > 1e-9 for m, t in finite)
        self_total = sum(t["self_s"] for t in totals.values())
        root = totals.get(ROOT, {"inclusive_s": 0.0, "self_s": 0.0})
        return {
            "config.load_config_dict_s": per_op("config.load_config", "config.load_config_dict"),
            "signals.normalize_pair_s": per_op("signals.normalize_pair"),
            "families.certify_s": per_op("families.certify"),
            "output.write_json_s": per_op("output.write_json"),
            "cli.self_s": root["self_s"] / n_ops,
            "signals.check_admissible_frac": share("signals.check_admissible"),
            "genericity.coincidence_fraction.location_frac": share("genericity.coincidence_fraction.location"),
            "genericity.coincidence_fraction.location_scale_frac": share(
                "genericity.coincidence_fraction.location_scale"
            ),
            "genericity.coincidence_fraction.mixture_linear_frac": share(
                "genericity.coincidence_fraction.mixture_linear"
            ),
            "genericity.samples_per_kernel_s": n_swept / kernel_s if kernel_s > 0 else 0.0,
            "genericity.scaling_report_frac": share("genericity.scaling_report"),
            "optimize.accuracy_optimal_frac": share("optimize.accuracy_optimal"),
            "optimize.compliance_optimal_frac": share("optimize.compliance_optimal"),
            "optimize.equivalence_test_frac": share("optimize.equivalence_test"),
            "optimize.accuracy_optimal_calls_per_op": (
                len(self.optima) / len(calls_by_op) if calls_by_op else 0.0
            ),
            "optimize.iterations_mean": (
                sum(r.iterations for _, _, r in self.optima) / len(self.optima) if self.optima else 0.0
            ),
            "optimize.stationarity_miss_frac": misses / len(finite) if finite else 0.0,
            "output.write_sweep_csv_frac": share("output.write_sweep_csv"),
            "output.write_equilibrium_csv_frac": share("output.write_equilibrium_csv"),
            "trace.accounted_frac": self_total / wall_s,
        }
