"""Record the default-seed sweep summaries that the gate compares against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run once at the commit whose outputs are the reference; later commits must
reproduce these files byte for byte.
"""

import shutil
import sys

import gate
import workloads as W
from worker import WORK, run_op


def main() -> int:
    work = WORK / "reference"
    gate.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in W.WORKLOADS:
        for name, op in W.reference_ops(workload):
            code, _, out_dir, text = run_op(op, name, work)
            if code != 0:
                print(f"{name} failed:\n{text}", file=sys.stderr)
                return 1
            shutil.copyfile(out_dir / "summary.json", gate.REFERENCE_DIR / f"{name}.summary.json")
            print(f"recorded {name}")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
