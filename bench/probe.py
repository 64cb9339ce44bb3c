"""Set-up probe, run in a fresh interpreter by ``run.py``.

Prints ``ready`` as soon as ``import qwcount`` and the workload's tiny op
have finished; the parent times spawn-to-``ready`` as ``setup_s``.  Then it
times the calibration loop of ``speed.py`` in this process, checks the tiny
result and, with ``--peak``, runs the workload's peak ops
under :mod:`tracemalloc`.  The last line is a JSON report.

    python3 bench/probe.py --workload sweep_grid --seed 1 [--peak]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import qwcount  # noqa: E402  (the import is part of what is timed)
import qwcount.cli  # noqa: E402,F401

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--peak", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    tiny = workload.tiny()
    out = workload.run(qwcount, tiny)
    print("ready", flush=True)

    import json
    import tracemalloc

    from reference import Mismatch
    from speed import calibrated_median

    report = {"failures": [], "cal_s": calibrated_median()}
    try:
        workload.check(tiny, out)
    except Mismatch as exc:
        report["failures"].append(f"tiny op {workload.describe(tiny)}: {exc}")
    if args.peak:
        ops = workload.peak(args.seed)
        peak = 0
        for op in ops:
            # Tracing stops before the check, so reference arrays do not count.
            tracemalloc.start()
            out = workload.run(qwcount, op)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            try:
                workload.check(op, out)
            except Mismatch as exc:
                report["failures"].append(f"peak op {workload.describe(op)}: {exc}")
            del out
        report["peak_bytes"] = peak
        report["peak_ops"] = len(ops)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
