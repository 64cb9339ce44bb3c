import csv
import dataclasses
import io
import json
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qwcount.analysis import MAX_SWEEP_POINTS, load_sweep_config, run_sweep, verify_suite
from qwcount.cli import (
    DISTRIBUTION_FIELDS,
    MAX_JOINT_ROWS,
    PART_COUNT_FIELDS,
    SAMPLED_PART_FIELDS,
    SAMPLED_TOTAL_FIELDS,
    SPECTRUM_FIELDS,
    TOTAL_COUNT_FIELDS,
    VERIFY_FIELDS,
    _instance_from_args,
    _trial_seed,
    build_parser,
    emit,
    main,
)
from qwcount.counting import full_count, partial_count
from qwcount.phase_estimation import circuit_distribution, exact_distribution
from qwcount.reduced import EIGENPHASE_LABELS, angles_from_instance, eigenphase_table
from qwcount.walk import build_evolution, build_oracle, uniform_state

FIG2_ARGS = ["--n0", "4", "--n1", "3", "--k0", "2", "--k1", "1"]


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_missing_required_flag_exits_1(capsys):
    status, _, err = run_cli(capsys, "count", "--n1", "3", "--p", "4")
    assert status == 1
    assert "error" in err.lower()


def test_unknown_flag_exits_1(capsys):
    status, _, _ = run_cli(capsys, "count", *FIG2_ARGS, "--p", "4", "--bogus")
    assert status == 1


def test_invalid_marked_count_exits_1(capsys):
    status, _, err = run_cli(capsys, "count", "--n0", "4", "--n1", "3", "--k0", "5", "--p", "4")
    assert status == 1
    assert "error" in err


def test_conflicting_mark_flags_exit_1(capsys):
    status, _, _ = run_cli(capsys, "spectrum", "--n0", "4", "--n1", "3",
                           "--k0", "2", "--marked0", "1,3")
    assert status == 1


def test_spectrum_output(capsys):
    status, out, _ = run_cli(capsys, "spectrum", *FIG2_ARGS)
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "label,phase_radians,probability,theta0,theta1,mu,sigma"
    assert len(lines) == 9
    weights = [float(line.split(",")[2]) for line in lines[1:]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)


def test_spectrum_counts_and_lists_agree(capsys):
    _, by_counts, _ = run_cli(capsys, "spectrum", *FIG2_ARGS)
    _, by_lists, _ = run_cli(capsys, "spectrum", "--n0", "4", "--n1", "3",
                             "--marked0", "1,3", "--marked1", "1")
    assert by_counts == by_lists


def test_distribution_header_and_masses(capsys):
    status, out, _ = run_cli(capsys, "distribution", *FIG2_ARGS, "--p", "4")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,omega_index,omega_radians,mass"
    assert len(lines) == 17
    masses = [float(line.split(",")[3]) for line in lines[1:]]
    assert sum(masses) == pytest.approx(1.0, abs=1e-10)


def test_distribution_engines_agree(capsys):
    _, analytic, _ = run_cli(capsys, "distribution", *FIG2_ARGS, "--p", "4", "--engine", "analytic")
    _, circuit, _ = run_cli(capsys, "distribution", *FIG2_ARGS, "--p", "4", "--engine", "circuit")
    mass_a = [float(line.split(",")[3]) for line in analytic.strip().splitlines()[1:]]
    mass_c = [float(line.split(",")[3]) for line in circuit.strip().splitlines()[1:]]
    assert max(abs(a - c) for a, c in zip(mass_a, mass_c)) < 1e-10


def test_distribution_circuit_engine_guards_size(capsys):
    status, _, err = run_cli(capsys, "distribution", "--n0", "9", "--n1", "9",
                             "--p", "3", "--engine", "circuit")
    assert status == 1
    assert "error" in err


def test_count_exact_part_output(capsys):
    status, out, _ = run_cli(capsys, "count", *FIG2_ARGS, "--p", "4", "--part", "1")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("p,part,n_part,k_part,omega_index")
    assert len(lines) == 17


def test_count_exact_both_output(capsys):
    status, out, _ = run_cli(capsys, "count", *FIG2_ARGS, "--p", "3", "--part", "both")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,omega_index_0,omega_index_1,k_est_0,k_est_1,k_est,mass,bound,oracle_queries"
    assert len(lines) == 65
    total_mass = sum(float(line.split(",")[6]) for line in lines[1:])
    assert total_mass == pytest.approx(1.0, abs=1e-10)


def test_count_exact_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "count", *FIG2_ARGS, "--p", "5", "--part", "both")
    _, second, _ = run_cli(capsys, "count", *FIG2_ARGS, "--p", "5", "--part", "both")
    assert first == second


def test_count_sampled_with_seed_is_reproducible(capsys):
    args = ["count", *FIG2_ARGS, "--p", "5", "--mode", "sampled", "--trials", "10", "--seed", "42"]
    status, first, err1 = run_cli(capsys, *args)
    assert status == 0
    assert "generated seed" not in err1
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0] == "trial,p,k_est_0,k_est_1,k_est,k_rounded,bound,oracle_queries,seed"
    assert len(lines) == 11
    assert all(line.endswith(",42") for line in lines[1:])


def test_count_sampled_without_seed_reports_one(capsys):
    status, out, err = run_cli(capsys, "count", *FIG2_ARGS, "--p", "4",
                               "--mode", "sampled", "--part", "0")
    assert status == 0
    assert "generated seed:" in err
    seed = err.split("generated seed:")[1].strip().split()[0]
    assert out.strip().splitlines()[1].endswith("," + seed)


def test_count_sampled_generated_seed_reproduces(capsys):
    # Rerunning with the reported seed reproduces the run after the fact.
    status, first, err = run_cli(capsys, "count", *FIG2_ARGS, "--p", "5",
                                 "--mode", "sampled", "--trials", "5")
    assert status == 0
    seed = err.split("generated seed:")[1].strip().split()[0]
    _, second, _ = run_cli(capsys, "count", *FIG2_ARGS, "--p", "5",
                           "--mode", "sampled", "--trials", "5", "--seed", seed)
    assert first == second


def test_count_sampled_trials_validation(capsys):
    status, _, _ = run_cli(capsys, "count", *FIG2_ARGS, "--p", "4",
                           "--mode", "sampled", "--seed", "1", "--trials", "0")
    assert status == 1


def test_verify_passes_on_default_register(capsys):
    status, out, _ = run_cli(capsys, "verify", *FIG2_ARGS)
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "check,value,limit,kind,passed"
    assert all(line.endswith(",true") for line in lines[1:])


def test_verify_corrupt_oracle_exits_2(capsys):
    status, out, _ = run_cli(capsys, "verify", *FIG2_ARGS, "--corrupt-oracle")
    assert status == 2
    assert any(line.endswith(",false") for line in out.strip().splitlines()[1:])


def test_verify_oversize_instance_exits_1(capsys):
    status, _, err = run_cli(capsys, "verify", "--n0", "9", "--n1", "9")
    assert status == 1
    assert "error" in err


def test_sweep_csv_and_exit_code(capsys, tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text("n0 = 2..3\nn1 = 2\nk0 = 0..2\nk1 = 0..1\np = 4\n")
    status, out, _ = run_cli(capsys, "sweep", "--config", str(config))
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n0,n1,k0,k1,p,theta0")
    # All 2 x 1 x 3 x 2 grid points are feasible, one record each.
    assert len(lines) == 1 + 12


def test_sweep_json_format(capsys, tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text("n0 = 2\nn1 = 2\nk0 = 1\nk1 = 0\np = 4\nformat = json\n")
    status, out, _ = run_cli(capsys, "sweep", "--config", str(config))
    assert status == 0
    import json

    records = json.loads(out)
    assert len(records) == 1
    assert records[0]["n0"] == 2 and records[0]["part0_pass"] is True
    assert set(records[0]) >= {"theta0", "part0_mass", "total_mass", "total_pass"}


def test_sweep_threshold_failure_exits_2(capsys, tmp_path):
    # K_{3,3} with one mark per part at p = 6 misses the part threshold.
    config = tmp_path / "sweep.cfg"
    config.write_text("n0 = 3\nn1 = 3\nk0 = 1\nk1 = 1\np = 6\n")
    status, out, _ = run_cli(capsys, "sweep", "--config", str(config))
    assert status == 2
    assert ",false" in out


def test_sweep_bad_config_exits_1(capsys, tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text("n0 = 2\nn1 = 2\np = 4\nbogus = 1\n")
    status, _, err = run_cli(capsys, "sweep", "--config", str(config))
    assert status == 1
    assert "invalid sweep config" in err


def test_sweep_missing_config_file_exits_1(capsys, tmp_path):
    status, _, _ = run_cli(capsys, "sweep", "--config", str(tmp_path / "missing.cfg"))
    assert status == 1


@pytest.mark.parametrize("text", [
    "n0 = 1..2000000\nn1 = 2\np = 4\n",
    # 1,000 x 1,000 part sizes with the default k ranges: 1.0e12 candidates.
    "n0 = 1..1000\nn1 = 1..1000\np = 4\n",
], ids=["long_range", "parts_1000x1000"])
def test_sweep_oversize_grid_exits_1(capsys, tmp_path, text):
    # Sized before any value list or point list is expanded.
    config = tmp_path / "sweep.cfg"
    config.write_text(text)
    tracemalloc.start()
    try:
        status = main(["sweep", "--config", str(config)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert f"sweep limited to {MAX_SWEEP_POINTS} candidate grid points" in captured.err
    assert peak < 2**20


def test_output_to_file(capsys, tmp_path):
    target = tmp_path / "out.csv"
    status, out, _ = run_cli(capsys, "distribution", *FIG2_ARGS, "--p", "3",
                             "--output", str(target))
    assert status == 0
    assert out == ""
    content = target.read_text()
    assert content.startswith("p,omega_index,omega_radians,mass\n")


def test_json_output_uses_17_significant_digits(capsys):
    status, out, _ = run_cli(capsys, "spectrum", *FIG2_ARGS, "--format", "json")
    assert status == 0
    assert '"theta1": 1.2309594173407747' in out


def test_module_invocation_is_byte_stable():
    argv = [sys.executable, "-m", "qwcount", "count", *FIG2_ARGS,
            "--p", "5", "--mode", "sampled", "--trials", "25", "--seed", "314"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.startswith(b"trial,p,")


# -- Reference: one row dict per output row, rendered one cell at a time ------
#
# The emitter formats whole columns and streams blocks; these renderers and
# row builders are the row-by-row path it replaced, kept to pin its bytes.


def ref_format_scalar(value, as_json=False):
    if value is None:
        return "null" if as_json else ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if as_json and not isinstance(value, (int, np.integer)):
        return json.dumps(str(value))
    return str(value)


def ref_render_csv(rows, fieldnames):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([ref_format_scalar(row[name]) for name in fieldnames])
    return buffer.getvalue()


def ref_render_json(rows, fieldnames):
    items = []
    for row in rows:
        body = ", ".join(f"{json.dumps(name)}: {ref_format_scalar(row[name], as_json=True)}"
                         for name in fieldnames)
        items.append("  {" + body + "}")
    if not items:
        return "[]\n"
    return "[\n" + ",\n".join(items) + "\n]\n"


def ref_part_rows(dist):
    return [{"p": dist.p, "part": dist.part, "n_part": dist.n_target, "k_part": dist.k_true,
             "omega_index": index, "omega_radians": float(dist.omega[index]),
             "theta_est": float(dist.theta_est[index]), "k_est": float(dist.k_est[index]),
             "mass": float(dist.mass[index]), "bound": dist.bound,
             "oracle_queries": dist.oracle_queries}
            for index in range(dist.mass.size)]


def ref_total_rows(joint):
    part0, part1 = joint.part0, joint.part1
    return [{"p": joint.p, "omega_index_0": i0, "omega_index_1": i1,
             "k_est_0": float(part0.k_est[i0]), "k_est_1": float(part1.k_est[i1]),
             "k_est": float(part0.k_est[i0]) + float(part1.k_est[i1]),
             "mass": float(part0.mass[i0]) * float(part1.mass[i1]),
             "bound": joint.bound, "oracle_queries": joint.oracle_queries}
            for i0 in range(part0.mass.size) for i1 in range(part1.mass.size)]


def ref_rows(args):
    """Row dicts and field names of one parsed command line (not ``sweep``)."""
    inst = _instance_from_args(args)
    if args.command == "spectrum":
        angles = angles_from_instance(inst)
        mixture = eigenphase_table(angles)
        return [{"label": label, "phase_radians": float(phase), "probability": float(weight),
                 "theta0": angles.theta0, "theta1": angles.theta1, "mu": angles.mu,
                 "sigma": angles.sigma}
                for label, phase, weight in zip(EIGENPHASE_LABELS, mixture.phases,
                                                mixture.weights)], SPECTRUM_FIELDS
    if args.command == "distribution":
        if args.engine == "analytic":
            dist = exact_distribution(eigenphase_table(angles_from_instance(inst)), args.p)
        else:
            dist = circuit_distribution(build_evolution(inst, build_oracle(inst)),
                                        uniform_state(inst), args.p)
        return [{"p": dist.p, "omega_index": index, "omega_radians": float(omega),
                 "mass": float(mass)}
                for index, (omega, mass) in enumerate(zip(dist.omegas(), dist.mass))], \
            DISTRIBUTION_FIELDS
    if args.command == "verify":
        oracle = None
        if args.corrupt_oracle:
            oracle = build_oracle(inst)
            oracle[0, 0] = -oracle[0, 0]
        return [{"check": c.name, "value": c.value, "limit": c.limit, "kind": c.kind,
                 "passed": c.passed}
                for c in verify_suite(inst, args.p, oracle=oracle).checks], VERIFY_FIELDS
    part = None if args.part == "both" else int(args.part)
    dist = full_count(args.p, inst) if part is None else partial_count(args.p, inst, part)
    if args.mode == "exact":
        if part is None:
            return ref_total_rows(dist), TOTAL_COUNT_FIELDS
        return ref_part_rows(dist), PART_COUNT_FIELDS
    rows = []
    for trial in range(args.trials):
        estimate = dist.draw(np.random.default_rng(_trial_seed(args.seed, trial)))
        row = {"trial": trial, "p": estimate.p, "k_est": estimate.k_est,
               "k_rounded": estimate.k_rounded, "bound": estimate.bound,
               "oracle_queries": estimate.oracle_queries, "seed": args.seed}
        if part is None:
            row.update(k_est_0=estimate.part0.k_est, k_est_1=estimate.part1.k_est)
        else:
            row.update(part=part, theta_est=estimate.theta_est)
        rows.append(row)
    return rows, SAMPLED_TOTAL_FIELDS if part is None else SAMPLED_PART_FIELDS


def ref_render(rows, fieldnames, output_format):
    return (ref_render_json if output_format == "json" else ref_render_csv)(rows, fieldnames)


def _random_commands(seed=20240611):
    """Seeded random command lines (part sizes up to 64) for every command."""
    rng = random.Random(seed)

    def instance(n_max=64):
        n0, n1 = rng.randint(1, n_max), rng.randint(1, n_max)
        return ["--n0", str(n0), "--n1", str(n1),
                "--k0", str(rng.randint(0, n0)), "--k1", str(rng.randint(0, n1))]

    def sampled():
        return ["--mode", "sampled", "--trials", str(rng.randint(1, 40)),
                "--seed", str(rng.randrange(2**40))]

    cases = {}
    for fmt in ("csv", "json"):
        shapes = {
            "spectrum": lambda: ["spectrum", *instance()],
            "distribution_analytic": lambda: ["distribution", *instance(),
                                              "--p", str(rng.randint(1, 10))],
            "distribution_circuit": lambda: ["distribution", *instance(8), "--p",
                                             str(rng.randint(1, 6)), "--engine", "circuit"],
            "count_part": lambda: ["count", *instance(), "--p", str(rng.randint(1, 10)),
                                   "--part", str(rng.randint(0, 1))],
            "count_both_p1": lambda: ["count", *instance(), "--p", "1"],
            "count_both_p2": lambda: ["count", *instance(), "--p", "2"],
            "count_both_p6": lambda: ["count", *instance(), "--p", "6"],
            "count_both_p7": lambda: ["count", *instance(), "--p", "7"],
            "sampled_part": lambda: ["count", *instance(), "--p", str(rng.randint(1, 12)),
                                     "--part", str(rng.randint(0, 1)), *sampled()],
            "sampled_total": lambda: ["count", *instance(), "--p", str(rng.randint(1, 12)),
                                      *sampled()],
            "verify_corrupt": lambda: ["verify", *instance(8), "--p", str(rng.randint(2, 6)),
                                       "--corrupt-oracle"],
        }
        for name, make in shapes.items():
            for copy in range(2):
                if copy and name in ("count_both_p6", "count_both_p7", "verify_corrupt"):
                    continue
                cases[f"{name}_{fmt}_{copy}"] = [*make(), "--format", fmt]
    return cases


RANDOM_COMMANDS = _random_commands()


@pytest.mark.parametrize("name", sorted(RANDOM_COMMANDS))
def test_emitter_matches_row_reference(capsys, name):
    argv = RANDOM_COMMANDS[name]
    args = build_parser().parse_args(argv)
    if args.command == "distribution" and args.engine == "circuit":
        inst = _instance_from_args(args)
        assert inst.num_edges <= 64
    rows, fieldnames = ref_rows(args)
    status = main(argv)
    assert status in (0, 2)
    assert capsys.readouterr().out == ref_render(rows, fieldnames, args.format)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_with_infeasible_points_matches_row_reference(capsys, tmp_path, fmt):
    config = tmp_path / "sweep.cfg"
    # k0 = 3 and 4 exceed n0 = 2 and 3 in places, so points are skipped.
    config.write_text("n0 = 2..3\nn1 = 1..3\nk0 = 0..4\nk1 = 0..1\np = 3,5\n")
    records = run_sweep(load_sweep_config(config))
    assert len(records) < 2 * 3 * 5 * 2 * 2
    expected = ref_render([dataclasses.asdict(r) for r in records], records[0].FIELD_ORDER, fmt)
    main(["sweep", "--config", str(config), "--format", fmt])
    assert capsys.readouterr().out == expected


CRAFTED_FIELDS = ("label", "flag", "value", "count", 'odd, "name" 100%', "constant")


def _crafted_blocks():
    bits = np.random.default_rng(5).integers(0, 2**63, 300, dtype=np.int64)
    random_floats = np.concatenate([bits.view(np.float64), -bits.view(np.float64)])
    tail = random_floats.size
    return [
        {"label": ["plain", 'comma, "quote"\nnewline', "carriage\rreturn", "100% %s", "", None],
         "flag": [True, False, np.bool_(True), np.bool_(False), None, 1],
         "value": np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1]),
         "count": np.array([0, -1, 2**62, 7, np.iinfo(np.int64).min, 4]),
         'odd, "name" 100%': np.array([1, 2, 3, 4, 5, 255], dtype=np.uint8),
         "constant": np.int32(-7)},
        {"label": [], "flag": np.array([], dtype=bool), "value": np.array([]),
         "count": [], 'odd, "name" 100%': np.array([], dtype=np.int16), "constant": "skipped"},
        {"label": 'scalar, "quoted" %d\n', "flag": np.array([True, False] * (tail // 2)),
         "value": random_floats, "count": np.arange(tail, dtype=np.int32),
         'odd, "name" 100%': np.array([0.1, None, 2] * (tail // 3), dtype=object),
         "constant": None},
        {"label": ["last"], "flag": np.bool_(False), "value": np.array([1.5], dtype=np.float32),
         "count": [np.int64(-3)], 'odd, "name" 100%': [-0.0], "constant": float("nan")},
    ]


def _rows_of(blocks, fieldnames):
    rows = []
    for block in blocks:
        columns = [c for c in block.values() if isinstance(c, (list, np.ndarray))]
        for i in range(len(columns[0])):
            rows.append({name: block[name][i] if isinstance(block[name], (list, np.ndarray))
                         else block[name] for name in fieldnames})
    return rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emitter_matches_row_reference_on_crafted_columns(capsys, fmt):
    blocks = _crafted_blocks()
    emit(blocks, CRAFTED_FIELDS, fmt, None)
    assert capsys.readouterr().out == ref_render(_rows_of(blocks, CRAFTED_FIELDS), CRAFTED_FIELDS, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emitter_block_edges(capsys, fmt):
    # The same rows in one block and one row per block print the same bytes.
    block = _crafted_blocks()[0]
    single = [{name: column[i:i + 1] if isinstance(column, (list, np.ndarray)) else column
               for name, column in block.items()} for i in range(6)]
    emit([block], CRAFTED_FIELDS, fmt, None)
    whole = capsys.readouterr().out
    emit(iter(single), CRAFTED_FIELDS, fmt, None)
    assert capsys.readouterr().out == whole


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emitter_empty_table(capsys, fmt):
    empty = {name: [] for name in CRAFTED_FIELDS}
    for blocks in ([], [empty], [empty, empty]):
        emit(blocks, CRAFTED_FIELDS, fmt, None)
        assert capsys.readouterr().out == ref_render([], CRAFTED_FIELDS, fmt)
    assert ref_render([], CRAFTED_FIELDS, "json") == "[]\n"


def test_emitter_rejects_ragged_columns(capsys):
    with pytest.raises(ValueError):
        emit([{"a": [1, 2], "b": np.arange(3)}], ("a", "b"), "csv", None)


@pytest.mark.parametrize("p", [11, 64, 10**9])
def test_cli_joint_table_oversize_register_exits_1(capsys, p):
    argv = ["count", "--n0", "4", "--n1", "3", "--k0", "2", "--k1", "1", "--p", str(p),
            "--part", "both"]
    tracemalloc.start()
    try:
        status = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert f"limited to {MAX_JOINT_ROWS} rows, got 4**{p}" in captured.err
    assert peak < 2**20


@pytest.mark.parametrize("p", [21, 10**6])
def test_cli_sampled_total_oversize_register_exits_1(capsys, p):
    # The analytic engine's guard runs before the total's bound forms 2**p.
    argv = ["count", *FIG2_ARGS, "--p", str(p), "--part", "both", "--mode", "sampled",
            "--trials", "1", "--seed", "1"]
    tracemalloc.start()
    try:
        status = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert f"analytic engine limited to p <= 20, got {p}" in captured.err
    assert peak < 2**20


def test_joint_table_guard_admits_p10_and_spares_sampled_mode(capsys):
    assert MAX_JOINT_ROWS >= 4**10
    assert 4**11 > MAX_JOINT_ROWS
    status, out, _ = run_cli(capsys, "count", *FIG2_ARGS, "--p", "11", "--mode", "sampled",
                             "--trials", "3", "--seed", "5")
    assert status == 0
    assert len(out.splitlines()) == 4


def _joint_table_peak(p, target):
    tracemalloc.start()
    try:
        status = main(["count", "--n0", "8", "--n1", "8", "--k0", "3", "--k1", "5", "--p", str(p),
                       "--part", "both", "--output", str(target)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert target.stat().st_size > 4**p * 60
    return peak


def test_joint_table_memory_does_not_grow_with_rows(tmp_path):
    # Streamed in fixed-size blocks, the 16x larger table at p = 10 costs only
    # the per-part arrays and cells: about 1.7 MiB at p = 8 and 2.0 MiB at
    # p = 10 when measured (64-bit CPython 3.11); one P^2 table held whole would
    # be over 100 MiB.
    small = _joint_table_peak(8, tmp_path / "p8.csv")
    large = _joint_table_peak(10, tmp_path / "p10.csv")
    assert large - small < 2**19
