"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest bench/tests -q
"""

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import qwcount  # noqa: E402
import qwcount.cli  # noqa: E402,F401
from qwcount.analysis import MAX_FULL_SPACE_EDGES  # noqa: E402
from qwcount.phase_estimation import MAX_CIRCUIT_QUBITS  # noqa: E402

import reference as ref  # noqa: E402
import run  # noqa: E402
from reference import Mismatch  # noqa: E402
from tracer import BENCH_LAYER, HOOKS, LAYERS, Tracer  # noqa: E402
from workloads import MAX_JOINT_ROWS, PART_FIELDS, WORKLOADS  # noqa: E402

SEED = 7


def ops_of(name, seed=SEED, n=600):
    return list(itertools.islice(WORKLOADS[name].ops(seed), n))


def inputs(op):
    return {k: v for k, v in op.items() if k != "recheck"}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_same_ops(name):
    workload = WORKLOADS[name]
    assert ops_of(name) == ops_of(name)
    assert ops_of(name) != ops_of(name, SEED + 1)
    assert workload.warmup(SEED) == workload.warmup(SEED)
    assert workload.peak(SEED) == workload.peak(SEED)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_warmup_and_tiny_inputs_are_not_in_the_op_list(name):
    workload = WORKLOADS[name]
    listed = [inputs(op) for op in workload.ops(SEED)]
    for op in [*workload.warmup(SEED), workload.tiny()]:
        assert inputs(op) not in listed


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_block_has_the_same_strata(name):
    workload = WORKLOADS[name]
    ops = ops_of(name, n=8 * workload.block)
    strata_keys = {"sweep_grid": ("p",), "large_register": ("p_bound", "p_joint", "p_grover"),
                   "full_space_verify": ("p",), "cli_emit": ("kind", "p", "fmt")}[name]
    blocks = [sorted(tuple(op[k] for k in strata_keys) for op in ops[i:i + workload.block])
              for i in range(0, len(ops), workload.block)]
    assert all(block == blocks[0] for block in blocks)
    if name == "sweep_grid":
        points = [sum((op["n0"] + 1) * (op["n1"] + 1) for op in ops[i:i + workload.block])
                  for i in range(0, len(ops), workload.block)]
        assert set(points) == {4 * 121}


def test_full_space_inputs_stay_inside_the_program_limits():
    workload = WORKLOADS["full_space_verify"]
    for op in [*workload.ops(SEED), *workload.warmup(SEED), *workload.peak(SEED)]:
        assert op["n0"] * op["n1"] <= MAX_FULL_SPACE_EDGES
        assert op["p"] <= MAX_CIRCUIT_QUBITS
        assert 0 <= op["k0"] <= op["n0"] and 0 <= op["k1"] <= op["n1"]


def test_cli_joint_rows_stay_under_the_cap():
    workload = WORKLOADS["cli_emit"]
    for op in [*ops_of("cli_emit", n=workload.max_ops), *workload.warmup(SEED), *workload.peak(SEED)]:
        if op["kind"] == "both":
            assert (2 ** op["p"]) ** 2 <= MAX_JOINT_ROWS


def test_large_register_part_cases_never_repeat():
    seen = set()
    for op in WORKLOADS["large_register"].ops(SEED):
        for j in (0, 1):
            for p in (op["p_bound"], op["p_joint"]):
                key = (op[f"n{j}"], op[f"k{j}"], p)
                assert key not in seen
                seen.add(key)


def _perturbed_cli(text, delta):
    lines = text.splitlines()
    fields = lines[1].split(",")
    column = PART_FIELDS.index("mass")
    fields[column] = repr(float(fields[column]) + delta)
    lines[1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _perturb(name, out, delta):
    """The output with one reported mass moved by ``delta``."""
    if name == "sweep_grid":
        records = list(out)
        records[1] = dataclasses.replace(records[1], part0_mass=records[1].part0_mass + delta)
        return records
    if name == "large_register":
        part0, *rest = out
        return (dataclasses.replace(part0, satisfied_mass=part0.satisfied_mass + delta), *rest)
    if name == "full_space_verify":
        checks = tuple(dataclasses.replace(c, value=c.value + delta)
                       if c.name == "total_bound_mass" else c for c in out.checks)
        return dataclasses.replace(out, checks=checks)
    status, text = out
    return status, _perturbed_cli(text, delta)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_perturbed_mass_fails_the_check(name):
    workload = WORKLOADS[name]
    op = workload.tiny()
    out = workload.run(qwcount, op)
    workload.check(op, out)
    workload.check(op, _perturb(name, out, ref.MASS_TOL / 10))
    with pytest.raises(Mismatch):
        workload.check(op, _perturb(name, out, 1e-6))


def test_a_corrupted_oracle_fails_the_verify_check():
    workload = WORKLOADS["full_space_verify"]
    op = workload.tiny()
    inst = qwcount.BipartiteInstance.from_counts(op["n0"], op["n1"], op["k0"], op["k1"])
    oracle = qwcount.build_oracle(inst)
    oracle[0, 0] = -oracle[0, 0]
    with pytest.raises(Mismatch):
        workload.check(op, qwcount.verify_suite(inst, op["p"], oracle=oracle))


def test_a_flipped_pass_flag_fails_the_sweep_check():
    workload = WORKLOADS["sweep_grid"]
    op = {"n0": 4, "n1": 1, "p": 4}
    records = workload.run(qwcount, op)
    # n0 = 4, k0 = 1 at p = 4 misses the nominal bound: 0.7065 < 8/π².
    index = next(i for i, r in enumerate(records) if (r.k0, r.k1) == (1, 0))
    assert records[index].part0_pass is False
    workload.check(op, records)
    records[index] = dataclasses.replace(records[index], part0_pass=True)
    with pytest.raises(Mismatch):
        workload.check(op, records)


def test_reference_kernel_agrees_with_mpmath():
    # A float64 phase carries a relative error of eps, which P multiplies.
    for n, k, p in ((4, 1, 4), (7, 3, 9), (64, 13, 12)):
        part = ref.PartReference(n, k, p)
        exact = ref.MpPart.for_part(n, k, p)
        for m in (0, 1, 2**p // 3, 2**p - 1, *part.inside()):
            assert abs(part.mass[m] - float(exact.mass(m))) < 1e-15 + 2**p * 2.3e-16


def _traced_run(name, ops):
    tracer = Tracer()
    runner = run.Runner(WORKLOADS[name], qwcount, SEED, tracer)
    tracer.install()
    try:
        latencies = [runner.execute(i, op, traced=True)[0] for i, op in enumerate(ops)]
    finally:
        tracer.uninstall()
    assert runner.failed == 0, runner.failures
    return tracer, latencies


def test_layer_self_times_account_for_the_traced_wall_time():
    ops = [{"n0": 3, "n1": 4, "p": 4}, {"n0": 5, "n1": 2, "p": 5}]
    tracer, latencies = _traced_run("sweep_grid", ops)
    totals = tracer.layer_totals()
    self_sum = sum(entry["self_s"] for entry in totals.values())
    assert self_sum == pytest.approx(tracer.root_time(), rel=1e-9)
    assert 0.95 * sum(latencies) <= tracer.root_time() <= sum(latencies)
    assert all(entry["self_s"] >= -1e-9 for entry in totals.values())
    assert set(totals) == {*LAYERS, BENCH_LAYER}
    assert totals["counting"]["calls"] and totals["phase_estimation"]["calls"]


def test_spans_are_attributed_to_the_defining_module():
    tracer, _ = _traced_run("large_register", [WORKLOADS["large_register"].tiny()])
    names = {span[0]: span[3] for span in tracer.spans}
    parents = {names[span[1]] for span in tracer.spans
               if span[3] == "phase_estimation.exact_distribution"}
    assert parents == {"counting.partial_count", "counting.grover_count"}
    layers = {span[3]: span[4] for span in tracer.spans}
    assert layers["counting.partial_count"] == "counting"
    assert layers["phase_estimation.exact_distribution"] == "phase_estimation"
    assert layers["walk.BipartiteInstance.from_counts"] == "walk"


def test_uninstall_restores_the_package():
    originals = (qwcount.counting.partial_count, qwcount.analysis.partial_count,
                 qwcount.partial_count, qwcount.walk.BipartiteInstance.__dict__["from_counts"])
    tracer = Tracer()
    tracer.install()
    assert qwcount.analysis.partial_count is not originals[1]
    tracer.uninstall()
    assert (qwcount.counting.partial_count, qwcount.analysis.partial_count,
            qwcount.partial_count, qwcount.walk.BipartiteInstance.__dict__["from_counts"]) == originals


def test_tracer_skips_names_that_no_longer_exist(monkeypatch):
    monkeypatch.delattr(qwcount.phase_estimation, "fourier_kernel")
    monkeypatch.delattr(qwcount.linalg, "mat_mul")
    tracer = Tracer(hooks={**HOOKS, "counting.grover_count_error_bound_gone": HOOKS["counting.grover_count"]})
    tracer.install()
    tracer.uninstall()
    assert "phase_estimation.fourier_kernel" not in tracer.wrapped
    assert "phase_estimation.exact_distribution" in tracer.wrapped


def test_large_register_has_no_repeated_part_cases():
    ops = ops_of("large_register", n=WORKLOADS["large_register"].block)
    tracer, _ = _traced_run("large_register", ops)
    assert tracer.counters["counting.partial_calls"] == 4 * len(ops)
    assert tracer.counters["counting.partial_repeats"] == 0


def test_timed_pass_ends_on_a_whole_block(monkeypatch):
    monkeypatch.setattr(run, "MIN_OPS", 20)
    monkeypatch.setattr(run, "HARD_STOP_FACTOR", 1e6)
    workload = WORKLOADS["sweep_grid"]
    runner = run.Runner(workload, qwcount, SEED)
    latencies, raw, _, _ = run.timed_pass(runner, SEED, 1e-3)
    assert len(raw) == len(latencies) == 2 * workload.block
    assert runner.attempted == 2 * workload.block and runner.failed == 0
    # Each block shares one speed scale.
    for i in (0, workload.block):
        scales = [a / b for a, b in zip(latencies[i:i + workload.block], raw[i:i + workload.block])]
        assert max(scales) == pytest.approx(min(scales), rel=1e-12)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep_grid", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert done.returncode != 0
    assert time.perf_counter() - start < 180
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
