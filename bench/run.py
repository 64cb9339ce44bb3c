"""qwcount benchmark runner: one seeded, single-process, closed-loop client.

    python3 bench/run.py --workload cli_emit --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, fresh interpreters

Run from the repository root; the program is imported from ``./src``.  Each
op is sent only after the previous one returned.  Every op's output is
checked against the independent reference in ``reference.py`` outside the
timed span; a raised exception or a disagreement counts the op as failed.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median of fresh
interpreters reaching a first tiny result), then a warm-up on inputs
disjoint from the op list, then the timed pass, which runs whole blocks of
ops until it has ``--seconds`` of op time and at least ``MIN_OPS`` ops.
``peak_mib`` comes from a separate pass in a fresh interpreter.  ``--trace 1``
runs a fixed number of whole blocks instead, alternating untraced and traced
blocks, and reports the per-layer metrics.

The gated times are given at reference speed (see ``speed.py``): each set-up
probe is scaled by the calibration loop's median time in that probe, right
after its first result, and each op by the loop's median time over its
block, the loop running after every op.  The measured times are printed
beside them as ``*_raw`` and are not gated.

The last line of stdout is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
provenance and a readable table.  Details and spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from reference import Mismatch
from speed import REFERENCE_CAL_S, calibrate
from tracer import BENCH_LAYER, LAYERS, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT_DIR = BENCH_DIR / "out"

MIN_OPS = 100
# A timed or traced pass stops after this many times --seconds of op time
# even if MIN_OPS or the trace blocks are not reached, so that a badly
# regressed program still finishes within 180 s at --seconds 40.
HARD_STOP_FACTOR = 2.5
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 60
# Ops per run compared with mpmath, chosen among the first MIN_OPS ops.
MP_OPS = 6


def fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qwcount").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def blas_info() -> dict:
    info: dict = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        pass
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS", "QWCOUNT_THREADS") if k in os.environ}
    info["thread_env"] = threads
    return info


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    try:
        load = os.getloadavg()[0]
    except OSError:
        load = None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(), "src_sha256": source_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(), "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_info(), "loadavg_1m": load,
    }


class Runner:
    """Runs ops of one workload, checks them and keeps the tallies."""

    def __init__(self, workload, qw, seed: int, tracer=None):
        self.workload, self.qw, self.tracer = workload, qw, tracer
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.mp_rng = random.Random(f"{workload.name}:{seed}:mp")
        self.mp_ops = set(self.mp_rng.sample(range(MIN_OPS), MP_OPS))
        self.mp_pending = 0
        self.mp_errors: list[float] = []
        self.mp_seconds = 0.0

    def mass_err_max(self) -> float:
        return max(self.mp_errors, default=0.0)

    def warm_up(self, seed: int) -> int:
        """Run the workload's warm-up ops; return how many failed, uncounted."""
        for i, op in enumerate(self.workload.warmup(seed)):
            self.execute(-1 - i, op)
        failed = self.failed
        self.attempted = self.failed = 0
        if failed:
            self.failures.insert(0, f"{failed} warm-up op(s) failed")
        return failed

    def _fail(self, op_id, op, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"op {op_id} ({self.workload.describe(op)}): {message}")

    def execute(self, op_id: int, op: dict, traced: bool = False) -> tuple[float, dict]:
        """Run one op closed-loop; return its latency and check info."""
        workload, qw, tracer = self.workload, self.qw, self.tracer
        error = None
        start = time.perf_counter()
        if traced:
            tracer.begin_op(op_id, f"bench.{workload.name}")
        try:
            out = workload.run(qw, op)
        except Exception as exc:  # noqa: BLE001  any raise is a failed op
            error = exc
        if traced:
            tracer.end_op(error is not None)
        latency = time.perf_counter() - start
        self.attempted += 1
        if error is not None:
            self._fail(op_id, op, f"raised {error!r}")
            return latency, {}
        try:
            info = workload.check(op, out)
            if not traced:
                workload.recheck(qw, op, out)
        except Mismatch as exc:
            self._fail(op_id, op, str(exc))
            return latency, {}
        except Exception as exc:  # noqa: BLE001  unreadable output is a failed op
            self._fail(op_id, op, f"check raised {exc!r}")
            return latency, {}
        # An op with no mass to compare passes its turn to the next op.
        self.mp_pending += op_id in self.mp_ops
        if self.mp_pending:
            mp_start = time.perf_counter()
            pairs = workload.mp_masses(op, out, self.mp_rng)
            self.mp_errors.extend(float(abs(exact - got)) for got, exact in pairs)
            self.mp_pending -= bool(pairs)
            self.mp_seconds += time.perf_counter() - mp_start
        return latency, info


def run_probes(workload_name: str, seed: int) -> tuple[list[float], list[float], dict, list[str]]:
    """Spawn fresh interpreters; time each to its first tiny result.

    Returns the times at reference speed, the measured times, the last
    probe's report and any failures.
    """
    times, raw, report, failures = [], [], {}, []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(BENCH_DIR / "probe.py"), "--workload", workload_name,
               "--seed", str(seed)]
        if i == SETUP_REPEATS - 1:
            cmd.append("--peak")
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                first = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                rest = proc.stdout.read()
                proc.wait()
            finally:
                watchdog.cancel()
        if first.strip() != "ready" or proc.returncode != 0 or not rest.strip():
            failures.append(f"set-up probe {i} exited {proc.returncode} after {first.strip()!r}")
            continue
        report = json.loads(rest.strip().splitlines()[-1])
        raw.append(elapsed)
        times.append(elapsed * REFERENCE_CAL_S / report["cal_s"])
        failures.extend(report.get("failures", []))
    return times, raw, report, failures


def timed_pass(runner: Runner, seed: int, seconds: float) -> tuple[list, list, int, int]:
    """Latencies at reference speed and as measured, CLI rows and bytes.

    The pass ends on a whole block, so every run times the same mix of strata.
    """
    workload = runner.workload
    latencies, raw, rows, nbytes = [], [], 0, 0
    block_raw, block_cal = [], []
    for op_id, op in enumerate(workload.ops(seed)):
        latency, info = runner.execute(op_id, op)
        block_raw.append(latency)
        block_cal.append(calibrate())
        rows += info.get("rows", 0)
        nbytes += info.get("bytes", 0)
        busy = sum(raw) + sum(block_raw)
        block_done = op_id % workload.block == workload.block - 1
        if block_done or busy >= HARD_STOP_FACTOR * seconds:
            scale = REFERENCE_CAL_S / statistics.median(block_cal)
            latencies.extend(x * scale for x in block_raw)
            raw.extend(block_raw)
            block_raw, block_cal = [], []
            if (busy >= seconds and len(raw) >= MIN_OPS) or busy >= HARD_STOP_FACTOR * seconds:
                break
    return latencies, raw, rows, nbytes


def measure(workload, qw, seed: int, seconds: int) -> tuple[dict, dict, Runner, dict]:
    times, setup_raw, probe, probe_failures = run_probes(workload.name, seed)
    runner = Runner(workload, qw, seed)
    warm_failures = runner.warm_up(seed)
    latencies, raw, rows, nbytes = timed_pass(runner, seed, seconds)

    runner.failures[:0] = probe_failures
    busy, busy_raw = sum(latencies), sum(raw)
    metrics = {
        "setup_s": (statistics.median(times) if times else 0.0, "s"),
        "ops_per_s": (len(latencies) / busy, "1/s"),
        "op_p50_ms": (float(np.percentile(latencies, 50)) * 1e3, "ms"),
        "op_p90_ms": (float(np.percentile(latencies, 90)) * 1e3, "ms"),
        "peak_mib": (probe.get("peak_bytes", 0) / 2**20, "MiB"),
    }
    extra = {
        "failed_frac": (runner.failed / max(runner.attempted, 1), "frac"),
        "mass_err_max": (runner.mass_err_max(), "prob"),
        "setup_s_raw": (statistics.median(setup_raw) if setup_raw else 0.0, "s"),
        "ops_per_s_raw": (len(raw) / busy_raw, "1/s"),
        "op_p50_ms_raw": (float(np.percentile(raw, 50)) * 1e3, "ms"),
        "op_p90_ms_raw": (float(np.percentile(raw, 90)) * 1e3, "ms"),
    }
    details = {
        "timed_s": busy_raw, "timed_s_at_reference": busy, "percentile_samples": len(latencies),
        "blocks": len(latencies) / workload.block,
        "samples_above_p90": sum(1 for x in latencies if x * 1e3 > metrics["op_p90_ms"][0]),
        "speed_vs_reference": busy / busy_raw,
        "setup_samples": len(times), "setup_all_s": times, "setup_all_raw_s": setup_raw,
        "peak_ops": probe.get("peak_ops"),
        "mp_masses": len(runner.mp_errors), "mp_check_s": runner.mp_seconds,
        "cli_rows": rows, "cli_bytes": nbytes,
        "all_correct": not (runner.failed or probe_failures or warm_failures or not times
                            or "peak_bytes" not in probe),
    }
    return metrics, extra, runner, details


def trace(workload, qw, seed: int, seconds: int) -> tuple[dict, dict, Runner, dict]:
    tracer = Tracer()
    runner = Runner(workload, qw, seed, tracer)
    warm_failures = runner.warm_up(seed)

    pairs = max(1, math.ceil(seconds * workload.trace_rate / (2 * workload.block)))
    n_ops = 2 * pairs * workload.block
    plain, traced, rows, nbytes = [], [], 0, 0
    wall_start = time.perf_counter()
    for op_id, op in enumerate(workload.ops(seed)):
        if op_id >= n_ops:
            break
        in_traced_block = (op_id // workload.block) % 2 == 1
        if in_traced_block and op_id % workload.block == 0:
            tracer.install()
        latency, info = runner.execute(op_id, op, traced=in_traced_block)
        if in_traced_block:
            traced.append(latency)
            rows += info.get("rows", 0)
            nbytes += info.get("bytes", 0)
            if op_id % workload.block == workload.block - 1:
                tracer.uninstall()
        else:
            plain.append(latency)
        if time.perf_counter() - wall_start > HARD_STOP_FACTOR * seconds:
            break
    tracer.uninstall()

    totals = tracer.layer_totals()
    traced_s = sum(traced)
    span_s = sum(t["self_s"] for t in totals.values())
    metrics: dict[str, tuple[float, str]] = {}
    for layer in (*LAYERS, BENCH_LAYER):
        entry = totals[layer]
        metrics[f"{layer}.self_share"] = (entry["self_s"] / span_s if span_s else 0.0, "frac")
        if layer != BENCH_LAYER:
            metrics[f"{layer}.calls"] = (entry["calls"], "count")
            metrics[f"{layer}.errors"] = (entry["errors"], "count")
    counters = tracer.counters
    calls = counters["counting.partial_calls"]
    metrics.update({
        "bench.self_s": (totals[BENCH_LAYER]["self_s"], "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.ops": (len(traced), "count"),
        "trace.overhead_frac": ((traced_s / len(traced)) / (sum(plain) / len(plain)) - 1.0
                                if traced and plain else 0.0, "frac"),
        "phase_estimation.kernel_evals": (counters["phase_estimation.kernel_evals"], "count"),
        "phase_estimation.circuit_flops": (counters["phase_estimation.circuit_flops"], "flop"),
        "phase_estimation.mass_err_max": (runner.mass_err_max(), "prob"),
        "counting.outcomes": (counters["counting.outcomes"], "count"),
        "counting.joint_pairs": (counters["counting.joint_pairs"], "count"),
        "counting.repeat_share": (counters["counting.partial_repeats"] / calls if calls else 0.0,
                                  "frac"),
        "walk.matrix_bytes": (counters["walk.matrix_bytes"], "B"),
        "cli.rows": (rows, "count"),
        "cli.bytes": (nbytes, "B"),
    })
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{workload.name}.jsonl"
    tracer.write(spans_path)
    details = {
        "self_s": {layer: totals[layer]["self_s"] for layer in (*LAYERS, BENCH_LAYER)},
        "span_self_sum_s": span_s, "traced_s": traced_s, "untraced_s": sum(plain),
        "traced_ops": len(traced), "untraced_ops": len(plain), "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "wrapped": len(tracer.wrapped), "disabled_counters": sorted(tracer.failed_hooks),
        "all_correct": not (runner.failed or warm_failures),
    }
    return metrics, {}, runner, details


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {unit}")


def run_one(args) -> int:
    if not (ROOT / "src" / "qwcount" / "__init__.py").is_file():
        return fail_usage(f"no qwcount sources under {ROOT / 'src'}; run from the repository root")
    sys.path.insert(0, str(ROOT / "src"))
    import mpmath  # noqa: F401  (loaded before timing, not at the first mpmath check)
    import qwcount
    import qwcount.cli  # noqa: F401  (not imported by the package itself)

    if not Path(qwcount.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        return fail_usage(f"imported qwcount from {qwcount.__file__}, not from ./src")
    workload = WORKLOADS[args.workload]
    prov = provenance(workload.name, args.seed, args.seconds, args.trace)
    passes = trace if args.trace else measure
    metrics, extra, runner, details = passes(workload, qwcount, args.seed, args.seconds)
    correct = details.pop("all_correct")
    prov.update({"attempted": runner.attempted, "failed": runner.failed})
    print("provenance " + json.dumps(prov))
    print_table(f"{workload.name} (seed {args.seed}, trace {args.trace})", metrics)
    if extra:
        print_table("  not gated:", extra)
    print("details " + json.dumps(details))
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    record = {"provenance": prov, "correct": correct, "details": details,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
              "failures": runner.failures}
    (OUT_DIR / f"result-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh interpreter; one combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return fail_usage("--seconds must be at least 1")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
