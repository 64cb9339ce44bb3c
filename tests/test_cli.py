import subprocess
import sys

import pytest

from qwcount.cli import main

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
