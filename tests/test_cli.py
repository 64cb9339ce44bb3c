import argparse
import contextlib
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

from qwcount import cli
from qwcount.analysis import MAX_SWEEP_POINTS, load_sweep_config, run_sweep, verify_suite
from qwcount.cli import (
    _BLOCK_ROWS,
    _FLOAT_KERNEL_MIN,
    _FLOAT_KERNEL_PASS,
    DISTRIBUTION_FIELDS,
    MAX_JOINT_ROWS,
    PART_COUNT_FIELDS,
    SAMPLED_PART_FIELDS,
    SAMPLED_TOTAL_FIELDS,
    SPECTRUM_FIELDS,
    TOTAL_COUNT_FIELDS,
    VERIFY_FIELDS,
    _instance_from_args,
    build_parser,
    emit,
    main,
)
from qwcount.counting import full_count, partial_count
from qwcount.phase_estimation import PhaseDistribution, circuit_distribution, exact_distribution, sample
from qwcount.reduced import EIGENPHASE_LABELS, angles_from_instance, eigenphase_table
from qwcount.walk import BipartiteInstance, build_evolution, build_oracle, uniform_state

from conftest import draw_index, package_env
from test_cli_golden import GOLDEN

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
    # The count is refused before its canonical set {0..k0-1} is built.
    tracemalloc.start()
    try:
        status, _, err = run_cli(capsys, "spectrum", "--n0", "3", "--n1", "3",
                                 "--k0", "1000000", "--k1", "0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 1
    assert peak < 2**20 and len(err) < 200
    assert run_cli(capsys, "spectrum", "--n0", "3", "--n1", "3", "--k0", "-1")[0] == 1


@pytest.mark.parametrize("argv, message", [
    (["count", "--n1", "3", "--p", "4"], "the following arguments are required: --n0"),
    (["count", *FIG2_ARGS, "--p", "4", "--bogus"], "unrecognized arguments: --bogus"),
    (["count", "--n0", "4", "--n1", "3", "--marked0", "x", "--p", "4"],
     "--marked0 expects comma-separated integers, got 'x'"),
    (["count", "--n0", "4", "--n1", "3", "--k0", "1", "--marked0", "0", "--p", "4"],
     "--k0 and --marked0 are mutually exclusive"),
    (["count", "--n0", "3", "--n1", "3", "--k0", "4", "--p", "4"],
     "marked counts (4, 0) out of range for K_(3,3)"),
    (["count", *FIG2_ARGS, "--p", "4", "--mode", "sampled", "--trials", "0"],
     "--trials must be at least 1, got 0"),
    (["count", *FIG2_ARGS, "--p", "4", "--mode", "sampled", "--seed", "-1"],
     "--seed must be nonnegative, got -1"),
], ids=["missing_n0", "unknown_flag", "marked0_not_integers", "k0_and_marked0",
        "k0_out_of_range", "trials_0", "seed_negative"])
def test_input_errors_print_one_line_and_exit_1(capsys, argv, message):
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


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
    _, mixed, _ = run_cli(capsys, "spectrum", "--n0", "4", "--n1", "3", "--k0", "2", "--marked1", "1")
    assert mixed == by_counts


def test_counts_only_command_builds_one_instance(capsys, monkeypatch):
    built = []
    post_init = BipartiteInstance.__post_init__
    monkeypatch.setattr(BipartiteInstance, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    assert run_cli(capsys, "spectrum", *FIG2_ARGS)[0] == 0
    assert [(i.k0, i.k1) for i in built] == [(2, 1)]
    built.clear()
    assert run_cli(capsys, "spectrum", "--n0", "4", "--n1", "3", "--k0", "2", "--marked1", "0")[0] == 0
    assert [(i.k0, i.k1) for i in built] == [(2, 0), (2, 1)]  # then the listed set in place


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


def test_count_sampled_draws_from_the_exact_distribution(capsys):
    status, out, _ = run_cli(capsys, "count", *FIG2_ARGS, "--part", "0", "--p", "4",
                             "--mode", "sampled", "--trials", "4000", "--seed", "1")
    assert status == 0
    dist = partial_count(4, BipartiteInstance.from_counts(4, 3, 2, 1), 0)
    counts = {}
    for row in csv.DictReader(io.StringIO(out)):
        k = float(row["k_est"])
        counts[k] = counts.get(k, 0) + 1
    assert sum(counts.values()) == 4000
    for k, count in counts.items():
        assert count / 4000 == pytest.approx(dist.mass[dist.k_est == k].sum(), abs=0.03)


def test_count_sampled_trials_validation(capsys):
    status, _, _ = run_cli(capsys, "count", *FIG2_ARGS, "--p", "4",
                           "--mode", "sampled", "--seed", "1", "--trials", "0")
    assert status == 1


@pytest.mark.parametrize("seed", ["-1", str(-2**70)])
def test_count_sampled_rejects_negative_seed(capsys, seed):
    status, out, err = run_cli(capsys, "count", *FIG2_ARGS, "--p", "4",
                               "--mode", "sampled", "--seed", seed)
    assert status == 1
    assert out == ""
    assert "--seed" in err


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
    config.write_text("n0 = 2\nn1 = 2\nk0 = 1\nk1 = 0\np = 4\n")
    status, out, _ = run_cli(capsys, "sweep", "--config", str(config), "--format", "json")
    assert status == 0
    import json

    records = json.loads(out)
    assert len(records) == 1
    assert records[0]["n0"] == 2 and records[0]["part0_pass"] is True
    assert set(records[0]) >= {"theta0", "part0_mass", "total_mass", "total_pass"}


def test_sweep_config_format_key_is_rejected(capsys, tmp_path):
    # --format is the one way to choose the output format.
    config = tmp_path / "sweep.cfg"
    config.write_text("n0 = 2\nn1 = 2\nk0 = 1\nk1 = 0\np = 4\nformat = json\n")
    status, out, err = run_cli(capsys, "sweep", "--config", str(config))
    assert status == 1 and out == ""
    assert "unknown configuration keys: ['format']" in err


def test_sweep_config_checks_key_is_rejected(capsys, tmp_path):
    # Every point gets the part and total checks; the config cannot choose them.
    config = tmp_path / "sweep.cfg"
    config.write_text("n0 = 2\nn1 = 2\nk0 = 1\nk1 = 0\np = 4\nchecks = partial\n")
    status, out, err = run_cli(capsys, "sweep", "--config", str(config))
    assert status == 1 and out == ""
    assert err == "error: invalid sweep config: unknown configuration keys: ['checks']\n"


def test_commands_leave_the_parsed_arguments_alone(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text("n0 = 2\nn1 = 2\nk0 = 1\nk1 = 0\np = 4\n")
    for argv in (["spectrum", *FIG2_ARGS], ["distribution", *FIG2_ARGS, "--p", "3"],
                 ["count", *FIG2_ARGS, "--p", "3"], ["sweep", "--config", str(config)],
                 ["verify", *FIG2_ARGS, "--p", "3"]):
        args = build_parser().parse_args(argv)
        before = vars(args).copy()
        cli._COMMANDS[args.command](args)
        assert vars(args) == before


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


def test_sweep_without_feasible_points_exits_1(capsys, tmp_path):
    # k0 = 5 > n0 = 2 at every point: an error, not a bare header with exit 0.
    config = tmp_path / "sweep.cfg"
    config.write_text("n0 = 2\nn1 = 2\nk0 = 5\np = 4\n")
    status, out, err = run_cli(capsys, "sweep", "--config", str(config))
    assert status == 1
    assert out == ""
    assert err.splitlines()[-1] == "error: sweep config has no feasible grid points"


def test_sweep_empty_value_list_exits_1(capsys, tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text("n0 = ,\nn1 = 2\np = 4\n")
    status, out, err = run_cli(capsys, "sweep", "--config", str(config))
    assert status == 1
    assert out == ""
    assert err.strip() == "error: invalid sweep config: n0: no values"


@pytest.mark.parametrize("line, message", [
    ("n0 = a", "n0: expected integers, got 'a'"),
    ("n0 = 2..x", "n0: expected integers, got '2..x'"),
    ("n0 = 1..3,5", "n0: expected integers, got '1..3,5'"),
    ("k0 = 1.5", "k0: expected integers, got '1.5'"),
    ("p = 5..2", "p: empty range '5..2'"),
], ids=["word", "range_end", "range_and_list", "fraction", "empty_range"])
def test_sweep_value_error_names_key_and_text(capsys, tmp_path, line, message):
    values = {"n0": "n0 = 2", "n1": "n1 = 2", "k0": "k0 = 1", "p": "p = 4"}
    values[line.split()[0]] = line
    config = tmp_path / "sweep.cfg"
    config.write_text("".join(f"{text}\n" for text in values.values()))
    assert run_cli(capsys, "sweep", "--config", str(config)) == (
        1, "", f"error: invalid sweep config: {message}\n")


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
    first = subprocess.run(argv, capture_output=True, env=package_env())
    second = subprocess.run(argv, capture_output=True, env=package_env())
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
             "omega_index": index, "omega_radians": float(dist.omegas()[index]),
             "theta_est": float(dist.omegas()[dist.fold[index]]), "k_est": float(dist.k_est[index]),
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
    parts = (dist,) if part is not None else (dist.part0, dist.part1)
    rows = []
    rng = np.random.default_rng(args.seed)
    for trial in range(args.trials):
        picks = [draw_index(d.mass, rng) for d in parts]
        k_parts = [float(d.k_est[pick]) for d, pick in zip(parts, picks)]
        k_est = k_parts[0] if part is not None else k_parts[0] + k_parts[1]
        row = {"trial": trial, "p": dist.p, "k_est": k_est, "k_rounded": round(k_est),
               "bound": dist.bound, "oracle_queries": dist.oracle_queries, "seed": args.seed}
        if part is None:
            row.update(k_est_0=k_parts[0], k_est_1=k_parts[1])
        else:
            row.update(part=part, theta_est=float(dist.omegas()[dist.fold[picks[0]]]))
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
    block["pair"] = (cli._text(np.array([0.5, -0.0, 7.0])), np.array([2, 0, 1, 1, 0, 2]))
    fieldnames = (*CRAFTED_FIELDS, "pair")

    def row(column, i):
        if isinstance(column, tuple):
            return column[0], column[1][i:i + 1]
        return column[i:i + 1] if isinstance(column, (list, np.ndarray)) else column

    single = [{name: row(column, i) for name, column in block.items()} for i in range(6)]
    emit([block], fieldnames, fmt, None)
    whole = capsys.readouterr().out
    emit(iter(single), fieldnames, fmt, None)
    assert capsys.readouterr().out == whole


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emitter_empty_table(capsys, fmt):
    empty = {name: [] for name in CRAFTED_FIELDS}
    for blocks in ([], [empty], [empty, empty]):
        emit(blocks, CRAFTED_FIELDS, fmt, None)
        assert capsys.readouterr().out == ref_render([], CRAFTED_FIELDS, fmt)
    assert ref_render([], CRAFTED_FIELDS, "json") == "[]\n"


def _bit_distinct_blocks():
    # Equal-comparing values with different bits (0.0 / -0.0, NaNs of both
    # signs and several payloads), repeats, and the same values in later blocks.
    f64 = np.array([0, 1 << 63, 1 << 63, 0, 0x7FF0 << 48, 0xFFF0 << 48, 0x7FF0 << 48,
                    0x3FF8 << 48, 0x3FF8 << 48, 0xBFF8 << 48, 0x7FF8 << 48, 0xFFF8 << 48,
                    0x7FF0000000000001, 0xFFF00000DEADBEEF, 0x7FF8 << 48], dtype=np.uint64)
    f32 = np.array([0, 1 << 31, 1 << 31, 0, 0x7F800000, 0xFF800000, 0x7F800000, 0x3FC00000,
                    0x3FC00000, 0xBFC00000, 0x7FC00000, 0xFFC00000, 0x7F800001, 0xFFC0BEEF,
                    0x7FC00000], dtype=np.uint32)
    widths = (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64)
    blocks = []
    for order in (slice(None), slice(None, None, -1), slice(1, None, 3)):
        block = {"f64": f64.view(np.float64)[order], "f32": f32.view(np.float32)[order],
                 "constant": -0.0}
        for width in widths:
            info = np.iinfo(width)
            column = np.array([info.min, info.max, 0, 1, info.max] * 3, dtype=width)
            block[width.__name__] = column[order]
        blocks.append(block)
    return blocks


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emitter_dedups_on_bits_not_values(capsys, fmt):
    blocks = _bit_distinct_blocks()
    fieldnames = tuple(blocks[0])
    emit(blocks, fieldnames, fmt, None)
    assert capsys.readouterr().out == ref_render(_rows_of(blocks, fieldnames), fieldnames, fmt)


def test_emitter_rejects_ragged_columns(capsys):
    with pytest.raises(ValueError):
        emit([{"a": [1, 2], "b": np.arange(3)}], ("a", "b"), "csv", None)


PAIR_FIELDS = ("shared", "big", "constant")


def _pair_blocks():
    # Float values with -0.0 beside 0.0 and NaNs of both signs and several
    # payloads; uint64 values above 2**63.
    shared = np.array([0, 1 << 63, 0x7FF8 << 48, 0xFFF8 << 48, 0x7FF0000000000001,
                       0xFFF00000DEADBEEF, 0x3FB999999999999A, 0x7FF0 << 48],
                      dtype=np.uint64).view(np.float64)
    twin = shared.copy()
    big = np.array([0, 2**63, 2**64 - 1, 2**63 + 12345, 7], dtype=np.uint64)
    codes = np.random.default_rng(9).integers(0, 8, 40)
    none = np.array([], dtype=np.intp)
    return [
        {"shared": (shared, codes), "big": (big, codes % 5), "constant": -0.0},
        {"shared": (shared, codes[::-1]), "big": (big, codes[:40] // 2), "constant": "c"},
        {"shared": (twin, codes[:9]), "big": np.arange(9, dtype=np.uint64) << 60,
         "constant": 1},
        {"shared": (shared, none), "big": (big, none), "constant": 2},
        {"shared": (shared, codes[3:]), "big": (big, codes[3:] % 5), "constant": None},
        {"shared": (twin, codes[:4]), "big": 2**64 - 1, "constant": "only varying"},
        {"shared": [], "big": (big, none), "constant": 3},
    ]


def _expanded(blocks):
    return [{name: column[0][column[1]] if isinstance(column, tuple) else column
             for name, column in block.items()} for block in blocks]


def _text_pairs(blocks):
    return [{name: (cli._text(column[0]), column[1]) if isinstance(column, tuple) else column
             for name, column in block.items()} for block in blocks]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emitter_pair_columns_match_row_reference(capsys, fmt):
    blocks = _pair_blocks()
    emit(iter(_text_pairs(blocks)), PAIR_FIELDS, fmt, None)
    expected = _expanded(blocks)
    assert capsys.readouterr().out == ref_render(_rows_of(expected, PAIR_FIELDS), PAIR_FIELDS, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writer_formats_no_pair_text(monkeypatch, fmt):
    # Pairs arrive formatted, and the other columns are scalars: the writer
    # only gathers text.
    blocks = _text_pairs(_pair_blocks())
    calls = []
    monkeypatch.setattr(cli, "_format_numbers", lambda values: calls.append(values.size))
    handle = io.StringIO()
    cli._write_table(handle, iter(blocks), ("shared", "constant"), fmt == "json")
    assert calls == []
    expected = _rows_of(_expanded(_pair_blocks()), ("shared", "constant"))
    assert handle.getvalue() == ref_render(expected, ("shared", "constant"), fmt)


def test_joint_table_formats_part_columns_once_and_class_products_per_block(monkeypatch):
    # k/n off the estimate grid, so both parts have many bit classes.
    argv = ["count", "--n0", "37", "--n1", "50", "--k0", "13", "--k1", "29", "--p", "8",
            "--part", "both", "--output", "-"]
    formatted = []
    format_numbers = cli._format_numbers
    monkeypatch.setattr(cli, "_format_numbers",
                        lambda values: formatted.append(values.size) or format_numbers(values))
    joint = full_count(8, _instance_from_args(build_parser().parse_args(argv)))
    size = joint.part0.mass.size

    def classes(values):
        return np.unique(values.view(np.uint64), return_inverse=True)

    k0, k1, m0, m1 = map(classes, (joint.part0.k_est, joint.part1.k_est,
                                   joint.part0.mass, joint.part1.mass))
    # Per table: the grid indices (shared by both index columns) and each
    # part's k_est classes.  Per block: a (part-0 class present, part-1 class)
    # product for k_est and for mass.
    expected = [size, k0[0].size, k1[0].size]
    step = _BLOCK_ROWS // size
    for start in range(0, size, step):
        rows = slice(start, start + step)
        expected += [np.unique(k0[1][rows]).size * k1[0].size,
                     np.unique(m0[1][rows]).size * m1[0].size]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert len(expected) == 3 + 2 * 16
    assert sorted(formatted) == sorted(expected)
    assert sum(formatted) == 50050  # 55,312 when every block's columns were sorted


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("part", ["0", "1", "both"])
def test_sampled_trials_match_per_trial_draws(capsys, part, fmt):
    # k/n off the estimate grid; the run draws all trials at once, the
    # reference one draw_index per part per trial.
    argv = ["count", "--n0", "37", "--n1", "50", "--k0", "13", "--k1", "29", "--p", "9",
            "--part", part, "--mode", "sampled", "--trials", "3000", "--seed", "11",
            "--format", fmt]
    rows, fieldnames = ref_rows(build_parser().parse_args(argv))
    assert len({row["k_est"] for row in rows}) > 20
    assert main(argv) == 0
    assert capsys.readouterr().out == ref_render(rows, fieldnames, fmt)


@pytest.mark.parametrize("part", [0, 1])
def test_sampled_count_draws_the_stream_of_sample(capsys, part):
    # One sampler: a one-part run's k_est column is k_est at the grid indices
    # that phase_estimation.sample draws from the same seed.
    argv = ["count", "--n0", "37", "--n1", "50", "--k0", "13", "--k1", "29", "--p", "9",
            "--part", str(part), "--mode", "sampled", "--trials", "3000", "--seed", "11"]
    assert main(argv) == 0
    column = [float(row["k_est"]) for row in csv.DictReader(io.StringIO(capsys.readouterr().out))]
    dist = partial_count(9, BipartiteInstance.from_counts(37, 50, 13, 29), part)
    phases = PhaseDistribution(dist.p, dist.mass)
    indices = np.searchsorted(phases.omegas(), sample(phases, 11, 3000))
    assert len(set(column)) > 20
    assert column == dist.k_est[indices].tolist()


@pytest.mark.parametrize("part", ["0", "both"])
def test_sampled_run_accumulates_each_part_once(monkeypatch, part):
    # The command alone, not the writer: np.unique calls np.cumsum too.
    args = build_parser().parse_args(["count", *FIG2_ARGS, "--p", "6", "--part", part,
                                      "--mode", "sampled", "--trials", "200", "--seed", "3"])
    calls = []
    cumsum = np.cumsum
    monkeypatch.setattr(np, "cumsum", lambda *args, **kwargs: calls.append(1) or cumsum(*args, **kwargs))
    blocks, _, status = cli._cmd_count(args)
    assert status == 0
    assert len(calls) == (2 if part == "both" else 1)
    _, codes = next(blocks)["k_est"]
    assert codes.size == 200


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_joint_table_matches_row_reference_across_block_edges(capsys, fmt):
    # k/n off the estimate grid, so k_est and mass vary across the whole table.
    argv = ["count", "--n0", "37", "--n1", "50", "--k0", "13", "--k1", "29", "--p", "8",
            "--part", "both", "--format", fmt]
    assert 4**8 >= 16 * _BLOCK_ROWS
    rows, fieldnames = ref_rows(build_parser().parse_args(argv))
    assert len(rows) == 4**8
    assert main(argv) == 0
    assert capsys.readouterr().out == ref_render(rows, fieldnames, fmt)


@pytest.mark.parametrize("trials", [MAX_JOINT_ROWS + 1, 10**12])
@pytest.mark.parametrize("part", ["0", "both"])
def test_cli_sampled_trials_guard_exits_1_before_drawing(capsys, monkeypatch, trials, part):
    def no_draws(*_):
        raise AssertionError("the draw loop ran")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    argv = ["count", *FIG2_ARGS, "--p", "4", "--part", part, "--mode", "sampled",
            "--trials", str(trials), "--seed", "1"]
    tracemalloc.start()
    try:
        status = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert f"--trials limited to {MAX_JOINT_ROWS}, got {trials}" in captured.err
    assert peak < 2**20


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
    # the per-part arrays and one block's cells: about 1.9 MiB at p = 8 and
    # 2.1 MiB at p = 10 when measured (64-bit CPython 3.11, numpy 2.4); one P^2
    # table held whole would be over 100 MiB.
    small = _joint_table_peak(8, tmp_path / "p8.csv")
    large = _joint_table_peak(10, tmp_path / "p10.csv")
    assert large - small < 2**19


def test_shared_parser_leaks_no_state_between_calls(capsys, monkeypatch, tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text("n0 = 2\nn1 = 2\nk0 = 1\nk1 = 0\np = 4\n")
    sequence = [["count", *FIG2_ARGS, "--p", "4", "--bogus"],
                ["count", "--n1", "3", "--p", "4"],
                ["distribution", *FIG2_ARGS, "--p", "3", "--engine", "quantum"],
                ["sweep", "--config", str(config), "--format", "json"],
                ["count", *FIG2_ARGS, "--p", "3", "--part", "0"],
                ["verify", *FIG2_ARGS, "--p", "3"],
                ["verify", *FIG2_ARGS]]
    run_cli(capsys, "spectrum", *FIG2_ARGS)  # the process's parser exists from here on
    built = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__",
                        lambda self, *args, **kwargs: built.append(1) or init(self, *args, **kwargs))
    shared = [run_cli(capsys, *argv) for argv in sequence]
    assert built == []
    monkeypatch.setattr(cli, "_parser", build_parser)
    fresh = [run_cli(capsys, *argv) for argv in sequence]
    assert len(built) == 6 * len(sequence)  # the parser and its five commands
    assert shared == fresh
    assert [status for status, _, _ in shared[:3]] == [1, 1, 1]
    assert json.loads(shared[3][1])[0]["n0"] == 2
    assert shared[4][1].startswith(",".join(PART_COUNT_FIELDS) + "\n")
    assert [status for status, _, _ in shared[3:]] == [0, 0, 0, 0]


def test_build_parser_returns_a_new_independent_parser(capsys):
    first, second = build_parser(), build_parser()
    assert first is not second
    assert cli._parser() not in (first, second)
    # A command's own defaults override the top level's, so set both.
    first.set_defaults(format="json")
    [commands] = [a for a in first._actions if isinstance(a, argparse._SubParsersAction)]
    for command in commands.choices.values():
        command.set_defaults(format="json")
    assert first.parse_args(["spectrum", *FIG2_ARGS]).format == "json"
    assert second.parse_args(["spectrum", *FIG2_ARGS]).format == "csv"
    status, out, _ = run_cli(capsys, "spectrum", *FIG2_ARGS)
    assert status == 0
    assert out.startswith(",".join(SPECTRUM_FIELDS) + "\n")


INCREASING_COLUMNS = [
    np.array([-np.inf, -1e300, -5e-324, 0.0, 5e-324, 0.1, 1.0, np.inf]),
    np.arange(3000) / 7,
    np.array([np.iinfo(np.int64).min, -1, 0, 1, 2**62, np.iinfo(np.int64).max]),
    np.array([0, 1, 2**63 - 1, 2**63, 2**63 + 12345, 2**64 - 1], dtype=np.uint64),
]
UNORDERED_COLUMNS = [
    np.array([0.0, 0.1, 0.1, 0.2]),  # equal neighbours
    np.array([-1.0, -0.0, 0.0, 1.0]),  # -0.0 == 0.0 with other bits
    np.array([0.0, np.nan, 1.0]),
    np.array([np.nan, 1.0, 2.0]),
    np.array([1.0, 2.0, 5.0, 4.0, 3.0, 6.0]),  # a decreasing run
    np.array([2**64 - 1, 2**63, 2**63 - 1], dtype=np.uint64),
    np.array([0, 5, 5, 6], dtype=np.int64),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_strictly_increasing_columns_skip_the_sort(capsys, monkeypatch, fmt):
    # _row_blocks slices an increasing column and pairs any other over its
    # distinct bits; the writer formats a plain array as it is, unsorted.
    as_json = fmt == "json"
    sorted_sizes = []
    unique = np.unique
    monkeypatch.setattr(np, "unique",
                        lambda values, **kwargs: sorted_sizes.append(values.size) or unique(values, **kwargs))
    fieldnames = ("value", "label")
    for increasing, columns in ((True, INCREASING_COLUMNS), (False, UNORDERED_COLUMNS)):
        for column in columns:
            sorted_sizes.clear()
            assert cli._cells(column, as_json) == [cli._format_scalar(v, as_json) for v in column]
            assert sorted_sizes == []
            [block] = cli._row_blocks({"value": column, "label": "x"}, column.size)
            if increasing:
                assert sorted_sizes == []
                assert block["value"].tobytes() == column.tobytes()
            else:
                assert sorted_sizes == [column.size]
                text, codes = block["value"]
                assert text[codes].tolist() == cli._format_numbers(column)
                values, distinct_codes = cli._distinct(column)
                assert values[distinct_codes].tobytes() == column.tobytes()
                assert (distinct_codes == codes).all()
                assert unique(values.view(f"u{values.itemsize}")).size == values.size
            emit([block], fieldnames, fmt, None)
            reference = [{"value": column, "label": "x"}]
            assert capsys.readouterr().out == ref_render(_rows_of(reference, fieldnames), fieldnames, fmt)


def _float_edge_cases(rng):
    """Values that test each decision of the float kernel, both signs."""
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near_ten = [powers_of_ten]
    for direction in (0.0, np.inf):
        step = powers_of_ten
        for _ in range(3):
            step = np.nextafter(step, direction)
            near_ten.append(step)
    # n / 2**(17 - e) with n odd lies halfway between two 17-digit decimals.
    ties = []
    for e in range(-7, 16):
        bits = 17 - e
        low = -(-(2**bits * 10**(e + 8)) // 10**8)
        high = min(2**bits * 10**(e + 9) // 10**8, 2**53)
        ties += [int(n) * 2.0**-bits for n in rng.integers(low, high, 20) | 1]
    edges = [1e-280, 1e290, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             1e15 + 0.25, 1e15 + 0.75, 0.0, np.inf, np.nan]
    values = np.concatenate([
        rng.integers(0, 2**64, 8000, dtype=np.uint64).view(np.float64),
        rng.random(8000),
        (10**16 + np.arange(-300, 300)).astype(np.float64),
        (10**17 + 16 * np.arange(-300, 300)).astype(np.float64),
        *near_ten, np.ldexp(1.0, np.arange(-1074, 1024)), ties,
        np.nextafter(edges[:2], 0.0), np.nextafter(edges[:2], np.inf), edges])
    values = np.concatenate([values, -values])
    return values[rng.permutation(values.size)]


@pytest.mark.parametrize("log10_error", [0.0, -1e-12, 1e-12])
def test_float_kernel_prints_the_bytes_of_percent(monkeypatch, log10_error):
    # A log10 off by a little puts the leading digit of a value near a power
    # of ten one place off; such a cell must go to %, not print 16 or 18 digits.
    values = _float_edge_cases(np.random.default_rng(30))
    reference = ["%.17g" % value for value in values.tolist()]
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + log10_error)
    sizes = []
    kernel = cli._format_floats
    monkeypatch.setattr(cli, "_format_floats", lambda chunk: sizes.append(chunk.size) or kernel(chunk))
    for size in (_FLOAT_KERNEL_MIN - 1, _FLOAT_KERNEL_MIN, values.size):
        assert cli._format_numbers(values[:size]) == reference[:size]
    chunks = [min(_FLOAT_KERNEL_PASS, values.size - start)
              for start in range(0, values.size, _FLOAT_KERNEL_PASS)]
    assert sizes == [_FLOAT_KERNEL_MIN] + chunks


@pytest.mark.parametrize("name", ["distribution_analytic_p12_part64", "count_exact_both_p8_blocks"])
def test_float_kernel_leaves_only_zeros_to_percent(monkeypatch, name):
    # Grid phases, masses and estimates: every nonzero value is printed by the
    # kernel, so a kernel that always fell back would fail here.
    printed, fallen_back, inside = [], [], []
    kernel, each = cli._format_floats, cli._format_each

    def spy_kernel(values):
        printed.append(values.size)
        inside.append(True)
        try:
            return kernel(values)
        finally:
            inside.pop()

    monkeypatch.setattr(cli, "_format_floats", spy_kernel)
    monkeypatch.setattr(cli, "_format_each",
                        lambda values: fallen_back.extend(values.tolist() if inside else []) or each(values))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(GOLDEN[name][0]) == 0
    assert sum(printed) >= 4096
    assert set(fallen_back) <= {0.0}


@pytest.mark.parametrize("part", [0, 1])
def test_part_table_prints_theta_est_from_the_omega_text(monkeypatch, part):
    argv = ["count", "--n0", "64", "--n1", "37", "--k0", "13", "--k1", "29", "--p", "12",
            "--part", str(part)]
    formatted = []
    format_numbers = cli._format_numbers
    monkeypatch.setattr(cli, "_format_numbers",
                        lambda values: formatted.append(values.size) or format_numbers(values))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    dist = partial_count(12, _instance_from_args(build_parser().parse_args(argv)), part)
    distinct = [np.unique(values.view(np.uint64)).size for values in (dist.k_est, dist.mass)]
    # omega_index and omega_radians; theta_est adds no text (P/4 + 1 values before).
    assert sum(formatted) == 2 * 4096 + sum(distinct)
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    theta = dist.omegas()[dist.fold]
    assert [row["theta_est"] for row in rows] == ["%.17g" % v for v in theta.tolist()]


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_sweep_and_verify_format_numeric_columns_at_once(capsys, monkeypatch, tmp_path, command):
    config = tmp_path / "sweep.cfg"
    config.write_text("n0 = 2..3\nn1 = 2\nk0 = 0..1\nk1 = 1\np = 3\n")
    argv = {"verify": ["verify", *FIG2_ARGS, "--p", "4"],
            "sweep": ["sweep", "--config", str(config)]}[command]
    scalars = []
    format_scalar = cli._format_scalar
    monkeypatch.setattr(cli, "_format_scalar",
                        lambda value, as_json: scalars.append(value) or format_scalar(value, as_json))
    assert main(argv) == 0
    assert capsys.readouterr().out
    assert scalars and all(isinstance(value, (bool, str)) for value in scalars)
