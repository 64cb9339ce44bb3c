"""Run-to-run spread of the end-to-end metrics, as the benchmark gates them.

    python3 bench/stability.py --seeds 10                    # every workload
    python3 bench/stability.py --seeds 5 --workloads cli_emit
    python3 bench/stability.py --compare bench/out/stability-A.json bench/out/stability-B.json

Runs ``run.py`` once per (seed, workload), interleaving workloads within each
seed so slow drift of the machine spreads over all of them.  For each
end-to-end metric it reports the median and the quartile spread
``(Q3 - Q1) / median`` from ``statistics.quantiles(values, n=4)``, next to
the metric's bound in ``BENCHMARK.json``.  A spread above a third of the
bound is flagged ``wide``, above the bound ``OVER``.  The exit status fails
on an ``OVER`` spread of any metric but ``setup_s``: as in the acceptance
rule for the benchmark, set-up time is gated on the drift of its median
between two sets (``--compare``), not on its spread within one, because
fresh interpreters spread more than a warm process.  Its spread is still
printed and flagged.  ``--compare`` reports,
per workload and metric, how far the second set's median moved from the
first's in the metric's worse direction, against the same bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def spread(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def collect(config: dict, workloads: list[str], seeds: list[int]) -> dict:
    results: dict = {w: {} for w in workloads}
    for seed in seeds:
        for workload in workloads:
            cmd = [*config["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(config["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - start
            last = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode != 0 or not last["correct"]:
                sys.stderr.write(done.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}, "
                                 f"correct={last['correct']}")
            print(f"{workload:18s} seed {seed:3d}  {wall:5.1f} s  " + "  ".join(
                f"{k}={v['value']:.5g}" for k, v in last["metrics"].items()), flush=True)
            for metric, entry in last["metrics"].items():
                results[workload].setdefault(metric, []).append(entry["value"])
            results[workload].setdefault("_wall_s", []).append(wall)
    return results


def report(config: dict, results: dict) -> bool:
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    ok = True
    print(f"{'workload':18s} {'metric':12s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for workload, metrics in results.items():
        for metric, bound in bounds.items():
            median, width = spread(metrics[metric])
            flag = "OVER" if width > bound else "wide" if width > bound / 3 else ""
            if metric != "setup_s" and width > bound:
                ok = False
            print(f"{workload:18s} {metric:12s} {median:12.5g} {width:8.4f} {bound:6.2f} {flag}")
        print(f"{workload:18s} {'wall per run':12s} {statistics.median(metrics['_wall_s']):12.1f} s")
    return ok


def compare(config: dict, first: dict, second: dict) -> bool:
    ok = True
    for entry in config["end_to_end"]:
        name, bound, lower = entry["name"], entry["bound"], entry["better"] == "lower"
        for workload in first:
            a = statistics.median(first[workload][name])
            b = statistics.median(second[workload][name])
            worse = (b - a) / a if lower else (a - b) / a
            ok &= worse <= bound
            print(f"{workload:18s} {name:12s} {a:12.5g} -> {b:12.5g}  worse by {worse:+.4f} "
                  f"(bound {bound}){'  OVER' if worse > bound else ''}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--compare", nargs=2, metavar="RESULTS")
    args = parser.parse_args()
    config = load_config()
    if args.compare:
        first, second = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        return 0 if compare(config, first, second) else 1
    workloads = args.workloads or [w["name"] for w in config["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    results = collect(config, workloads, seeds)
    out = BENCH_DIR / "out" / f"stability-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"values written to {out.relative_to(ROOT)}")
    return 0 if report(config, results) else 1


if __name__ == "__main__":
    sys.exit(main())
