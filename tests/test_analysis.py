import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest

import qwcount
from qwcount import (
    BipartiteInstance,
    EigenphaseMixture,
    FULL_COUNT_SUCCESS_PROBABILITY,
    FullCountDistribution,
    GOOD_ESTIMATE_PROBABILITY,
    SweepConfig,
    angles_from_instance,
    bound_satisfaction_mass,
    build_evolution,
    build_oracle,
    circuit_distribution,
    exact_distribution,
    full_count,
    invariant_basis,
    joint_success_mass,
    parse_sweep_config,
    partial_count,
    run_sweep,
    spectral_decomposition,
    uniform_state,
    verify_suite,
)
from qwcount.analysis import MAX_SWEEP_POINTS, SweepRecord
from qwcount.errors import ResourceLimitError

FIG2 = BipartiteInstance(4, 3, frozenset({1, 3}), frozenset({1}))


def test_bound_report_certainty_case():
    report = bound_satisfaction_mass(BipartiteInstance.from_counts(4, 3, 2, 0), 0, 3)
    assert report.satisfied_mass == pytest.approx(1.0, abs=1e-9)
    assert report.threshold == GOOD_ESTIMATE_PROBABILITY
    assert report.passed()


def test_bound_report_unmarked_part():
    report = bound_satisfaction_mass(BipartiteInstance.from_counts(3, 3, 0, 2), 0, 4)
    assert report.satisfied_mass == pytest.approx(1.0, abs=1e-12)
    assert report.bound_value > 0.0


def test_bound_report_fig2_part1_p6():
    # Frozen exact mass, BELOW the target: the nominal radius misses the
    # half-angle precision loss on this instance.
    report = bound_satisfaction_mass(FIG2, 1, 6)
    assert report.satisfied_mass == pytest.approx(0.783972279908742, abs=1e-12)
    assert not report.passed()


def test_bound_report_fig2_part1_p5():
    report = bound_satisfaction_mass(FIG2, 1, 5)
    assert report.passed()


def test_joint_success_unmarked():
    report = joint_success_mass(BipartiteInstance(2, 2), 4)
    assert report.satisfied_mass == pytest.approx(1.0, abs=1e-12)
    assert report.threshold == FULL_COUNT_SUCCESS_PROBABILITY


def test_joint_success_fig2():
    report = joint_success_mass(FIG2, 6)
    assert report.satisfied_mass == pytest.approx(0.9271435011444529, abs=1e-12)
    assert report.passed()


def test_joint_success_dominates_part_product():
    for p in (4, 5, 6):
        joint = joint_success_mass(FIG2, p)
        part0 = bound_satisfaction_mass(FIG2, 0, p)
        part1 = bound_satisfaction_mass(FIG2, 1, p)
        assert joint.satisfied_mass >= part0.satisfied_mass * part1.satisfied_mass - 1e-12


def test_parse_sweep_config_ranges_and_lists():
    cfg = parse_sweep_config(
        """
        # comment
        n0 = 2..4
        n1 = 3
        k0 = 0,2
        k1 = 0..1
        p = 4,6
        """
    )
    assert cfg.n0_values == (2, 3, 4)
    assert cfg.n1_values == (3,)
    assert cfg.k0_values == (0, 2)
    assert cfg.k1_values == (0, 1)
    assert cfg.p_values == (4, 6)


def test_parse_sweep_config_defaults_k_ranges():
    cfg = parse_sweep_config("n0 = 2..3\nn1 = 2\np = 4\n")
    assert cfg.k0_values == (0, 1, 2, 3)
    assert cfg.k1_values == (0, 1, 2)


def test_parse_sweep_config_rejects_unknown_key():
    with pytest.raises(ValueError):
        parse_sweep_config("n0 = 2\nn1 = 2\np = 4\nbogus = 1\n")
    with pytest.raises(ValueError):
        parse_sweep_config("n0 = 2\nn1 = 2\n")  # missing p
    with pytest.raises(ValueError):
        parse_sweep_config("n0 = 2\nn0 = 3\nn1 = 2\np = 4\n")
    # Every point gets every check: the config has no key to choose them.
    with pytest.raises(ValueError, match=r"^unknown configuration keys: \['checks'\]$"):
        parse_sweep_config("n0 = 2\nn1 = 2\np = 4\nchecks = partial\n")


def test_sweep_grid_guard_counts_candidate_points():
    # The product of the five list lengths, infeasible points included.
    assert MAX_SWEEP_POINTS == 10**6
    cfg = parse_sweep_config("n0 = 1..8\nn1 = 1..8\np = 4..6\n")
    assert math.prod(map(len, (cfg.n0_values, cfg.n1_values, cfg.k0_values,
                               cfg.k1_values, cfg.p_values))) == 15_552
    at_limit = SweepConfig(range(1, 1001), range(1, 11), range(10), range(10), (4,))
    assert at_limit.n0_values == tuple(range(1, 1001))
    with pytest.raises(ResourceLimitError, match="got 1001000"):
        SweepConfig(range(1, 1002), range(1, 11), range(10), range(10), (4,))
    with pytest.raises(ResourceLimitError):
        parse_sweep_config(f"n0 = 1..{10**30}\nn1 = 1\nk0 = 0\np = 4\n")
    # A stepped range counts its values, not the span it covers.
    stepped = SweepConfig(range(1, 10**7, 10**6), (3,), (0,), (0,), (4,))
    assert stepped.n0_values == tuple(range(1, 10**7, 10**6)) and len(stepped.n0_values) == 10


def test_sweep_record_field_order_follows_the_fields():
    names = tuple(field.name for field in dataclasses.fields(SweepRecord))
    assert SweepRecord.FIELD_ORDER == names
    assert names[:5] == ("n0", "n1", "k0", "k1", "p") and names[-1] == "total_pass"
    assert len(names) == 18


def test_sweep_config_validation():
    assert [field.name for field in dataclasses.fields(SweepConfig)] == [
        "n0_values", "n1_values", "k0_values", "k1_values", "p_values"]
    with pytest.raises(ValueError):
        SweepConfig((), (2,), (0,), (0,), (4,))


def test_run_sweep_single_point_matches_direct_calls():
    cfg = SweepConfig((4,), (3,), (2,), (1,), (5,))
    records = run_sweep(cfg)
    assert len(records) == 1
    record = records[0]
    inst = BipartiteInstance.from_counts(4, 3, 2, 1)
    assert record.part0_mass == bound_satisfaction_mass(inst, 0, 5).satisfied_mass
    assert record.part1_mass == bound_satisfaction_mass(inst, 1, 5).satisfied_mass
    assert record.total_mass == joint_success_mass(inst, 5).satisfied_mass
    assert None not in dataclasses.astuple(record)
    assert record.theta0 == pytest.approx(math.pi / 2, abs=1e-15)


def test_run_sweep_is_deterministic_and_ordered():
    cfg = SweepConfig((2, 3), (2,), (0, 1), (0, 1), (4,))
    first = run_sweep(cfg)
    second = run_sweep(cfg)
    assert first == second
    keys = [(r.n0, r.n1, r.k0, r.k1, r.p) for r in first]
    assert keys == sorted(keys)


def test_run_sweep_skips_infeasible_points(caplog):
    # Five of the six (k0, k1) pairs exceed a part size: one INFO summary,
    # one DEBUG notice per skipped point.
    cfg = SweepConfig((2,), (2,), (0, 3, 4), (0, 3), (4,))
    with caplog.at_level(logging.DEBUG, logger="qwcount.analysis"):
        records = run_sweep(cfg)
    assert [(r.k0, r.k1) for r in records] == [(0, 0)]
    info = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert len(info) == 1
    assert "infeasible" in info[0] and "5" in info[0]
    assert sum(r.levelno == logging.DEBUG for r in caplog.records) == 5


def test_run_sweep_without_feasible_points_raises(caplog):
    # k0 = 5 exceeds n0 = 2 at every point: an error, not an empty success.
    with caplog.at_level(logging.INFO, logger="qwcount.analysis"):
        with pytest.raises(ValueError, match="sweep config has no feasible grid points"):
            run_sweep(SweepConfig((2,), (2,), (5,), (0, 1, 2), (4,)))
    assert [r.getMessage() for r in caplog.records] == ["skipped 3 infeasible grid points"]


@pytest.mark.parametrize("key", ["n0", "n1", "k0", "k1", "p"])
@pytest.mark.parametrize("empty", ["", ",", " , ,"], ids=["blank", "comma", "commas"])
def test_parse_sweep_config_rejects_empty_value_list(key, empty):
    values = {"n0": "2", "n1": "2", "k0": "1", "k1": "1", "p": "4"}
    values[key] = empty
    text = "".join(f"{name} = {value}\n" for name, value in values.items())
    with pytest.raises(ValueError, match=f"^{key}: no values$"):
        parse_sweep_config(text)


@pytest.fixture
def part_pushforwards(monkeypatch):
    """Count single-part pushforwards, whether analysis or full_count asks for them."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[:3])
        return partial_count(*args, **kwargs)

    monkeypatch.setattr(qwcount.counting, "partial_count", counted)
    monkeypatch.setattr(qwcount.analysis, "partial_count", counted)
    return calls


def test_verify_suite_pushes_each_part_forward_once(part_pushforwards):
    report = verify_suite(FIG2, 5)
    assert part_pushforwards == [(5, FIG2, 0), (5, FIG2, 1)]
    by_name = {c.name: c for c in report.checks}
    expected = {"part0_bound_mass": bound_satisfaction_mass(FIG2, 0, 5),
                "part1_bound_mass": bound_satisfaction_mass(FIG2, 1, 5),
                "total_bound_mass": joint_success_mass(FIG2, 5)}
    for name, direct in expected.items():
        assert by_name[name].value == direct.satisfied_mass
        assert by_name[name].limit == direct.threshold
        assert by_name[name].passed == direct.passed()


def test_run_sweep_pushes_each_part_forward_once(part_pushforwards):
    run_sweep(SweepConfig((4,), (3,), (2,), (1,), (5,)))
    assert len(part_pushforwards) == 2


def test_verify_suite_fig2_passes(fig2):
    report = verify_suite(fig2, 5)
    assert report.all_passed
    names = {c.name for c in report.checks}
    assert {"unitarity_shift", "invariant_leakage", "reduced_reconciliation",
            "eigen_residual_max", "overlap_closed_form", "analytic_circuit_tv",
            "ancilla_restriction_0", "total_bound_mass"} <= names


def test_verify_suite_unmarked_instance():
    report = verify_suite(BipartiteInstance(3, 3), 4)
    assert report.all_passed


def test_verify_suite_corrupted_oracle_fails(fig2):
    oracle = build_oracle(fig2)
    oracle[0, 0] = -oracle[0, 0]
    report = verify_suite(fig2, 5, oracle=oracle)
    assert not report.all_passed
    failed = {c.name for c in report.checks if not c.passed}
    assert failed & {"invariant_leakage", "reduced_reconciliation", "part_oracle_product"}


def test_verify_suite_rejects_nonunitary_oracle_as_the_circuit_engine_does(fig2):
    # The suite hands the circuit engine the defect of its own unitarity
    # check; the engine refuses a non-unitary step, and the suite reports
    # that refusal as the largest possible TV instead of raising.
    oracle = 2 * build_oracle(fig2)
    with pytest.raises(ValueError, match="operator is not unitary"):
        circuit_distribution(build_evolution(fig2, oracle), uniform_state(fig2), 5)
    rows = {c.name: c for c in verify_suite(fig2, 5, oracle=oracle).checks}
    assert rows["analytic_circuit_tv"].value == 1.0
    assert not rows["analytic_circuit_tv"].passed
    assert not rows["unitarity_evolution"].passed


def test_verify_suite_rejects_oversize_instance():
    with pytest.raises(ResourceLimitError):
        verify_suite(BipartiteInstance(9, 9), 4)


@pytest.mark.parametrize("p", [13, 20, 10**12])
def test_verify_suite_refuses_a_circuit_register_before_the_analytic_engine(monkeypatch, p):
    def no_analytic(*_):
        raise AssertionError("the analytic engine ran")

    monkeypatch.setattr(qwcount.analysis, "exact_distribution", no_analytic)
    with pytest.raises(ResourceLimitError, match=f"circuit simulation limited to p <= 12, got {p}"):
        verify_suite(BipartiteInstance.from_counts(3, 4, 1, 2), p)


def test_verify_suite_rejects_an_empty_register(fig2):
    with pytest.raises(ValueError, match="register size must be at least 1 qubit, got 0"):
        verify_suite(fig2, 0)


def test_verify_suite_rejects_oracle_of_wrong_shape(fig2):
    oracle = np.eye(fig2.dim + 1)
    with pytest.raises(ValueError, match=r"oracle shape \(25, 25\) does not match arc dimension 24"):
        verify_suite(fig2, 5, oracle=oracle)


def test_verify_suite_rejects_oracle_that_is_not_real_diagonal(fig2):
    # The override is read as its diagonal, so anything off it is an error.
    off_diagonal = build_oracle(fig2)
    off_diagonal[0, 1] = 1.0
    for oracle in (off_diagonal, build_oracle(fig2).astype(np.complex128)):
        with pytest.raises(ValueError, match="oracle override must be a real diagonal matrix"):
            verify_suite(fig2, 5, oracle=oracle)


def test_verify_suite_threshold_failure_is_reported(fig2):
    # At p = 6 the part-1 nominal-radius mass is below 8/pi^2; the suite
    # must report that check as failed rather than hide it.
    report = verify_suite(fig2, 6)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["part1_bound_mass"].passed
    assert by_name["part1_bound_mass"].value == pytest.approx(0.783972279908742, abs=1e-12)
    structural = [c for c in report.checks if c.kind == "max"]
    assert all(c.passed for c in structural)


def test_bound_masses_match_partial_count(fig2):
    report = bound_satisfaction_mass(fig2, 0, 5)
    dist = partial_count(5, fig2, 0)
    assert report.satisfied_mass == dist.mass_within(dist.bound)
    assert report.bound_value == dist.bound


def test_verify_suite_peak_memory_on_largest_arc_space():
    # K_{8,8} at p = 11: dimension 128 and a 128 x 2048 circuit state.  Real
    # operators, a real circuit prefix and a real-input register FFT taken
    # 16 rows at a time peak near 1.94 MiB under tracemalloc (64-bit CPython
    # 3.11, numpy 2.4): the held half of the 2 MiB state and one block of
    # rows.  Holding the whole state peaks at 2.80 MiB, above the bound.
    # The shift, the oracles and the 256 x 256 ancilla oracles are never
    # dense.
    inst = BipartiteInstance.from_counts(8, 8, 3, 5)
    verify_suite(inst, 11)  # warm-up, so one-time allocations are not counted
    tracemalloc.start()
    try:
        report = verify_suite(inst, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert peak < 2.5 * 2**20


ARRAY_VALUED_RESULTS = {
    "EigenphaseMixture": lambda: EigenphaseMixture([0.1, 0.2], [[0.5], [0.5]]),
    "PhaseDistribution": lambda: exact_distribution(EigenphaseMixture([0.1, 0.2], [[0.5], [0.5]]), 3),
    "CountDistribution": lambda: partial_count(4, BipartiteInstance.from_counts(4, 3, 2, 1), 0),
    "FullCountDistribution": lambda: full_count(4, FIG2),
    "InvariantBasis": lambda: invariant_basis(FIG2),
    "EigenRecord": lambda: spectral_decomposition(angles_from_instance(FIG2)).records[0],
    "SpectralDecomposition": lambda: spectral_decomposition(angles_from_instance(FIG2)),
}


@pytest.mark.parametrize("name", sorted(ARRAY_VALUED_RESULTS))
def test_array_valued_results_compare_by_identity(name):
    # Field-wise == would compare ndarrays and raise; these compare and hash
    # by identity.
    make = ARRAY_VALUED_RESULTS[name]
    a, b = make(), make()
    assert type(a).__name__ == name and a is not b
    assert a == a
    assert (a == b) is False and (a != b) is True
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
