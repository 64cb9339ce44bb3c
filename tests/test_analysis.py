import dataclasses
import logging
import math

import pytest

import qwcount
from qwcount import (
    BipartiteInstance,
    FULL_COUNT_SUCCESS_PROBABILITY,
    FullCountDistribution,
    GOOD_ESTIMATE_PROBABILITY,
    SweepConfig,
    bound_satisfaction_mass,
    build_oracle,
    joint_success_mass,
    parse_sweep_config,
    partial_count,
    run_sweep,
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
        checks = partial
        format = json
        """
    )
    assert cfg.n0_values == (2, 3, 4)
    assert cfg.n1_values == (3,)
    assert cfg.k0_values == (0, 2)
    assert cfg.k1_values == (0, 1)
    assert cfg.p_values == (4, 6)
    assert cfg.checks == ("partial",)
    assert cfg.output_format == "json"


def test_parse_sweep_config_defaults_k_ranges():
    cfg = parse_sweep_config("n0 = 2..3\nn1 = 2\np = 4\n")
    assert cfg.k0_values == (0, 1, 2, 3)
    assert cfg.k1_values == (0, 1, 2)
    assert cfg.checks == ("partial", "total")
    assert cfg.output_format == "csv"


def test_parse_sweep_config_rejects_unknown_key():
    with pytest.raises(ValueError):
        parse_sweep_config("n0 = 2\nn1 = 2\np = 4\nbogus = 1\n")
    with pytest.raises(ValueError):
        parse_sweep_config("n0 = 2\nn1 = 2\n")  # missing p
    with pytest.raises(ValueError):
        parse_sweep_config("n0 = 2\nn0 = 3\nn1 = 2\np = 4\n")


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


def test_sweep_record_field_order_follows_the_fields():
    names = tuple(field.name for field in dataclasses.fields(SweepRecord))
    assert SweepRecord.FIELD_ORDER == names
    assert names[:5] == ("n0", "n1", "k0", "k1", "p") and names[-1] == "total_pass"
    assert len(names) == 18


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig((), (2,), (0,), (0,), (4,))
    with pytest.raises(ValueError):
        SweepConfig((2,), (2,), (0,), (0,), (4,), checks=("bogus",))
    with pytest.raises(ValueError):
        SweepConfig((2,), (2,), (0,), (0,), (4,), output_format="xml")


def test_run_sweep_single_point_matches_direct_calls():
    cfg = SweepConfig((4,), (3,), (2,), (1,), (5,))
    records = run_sweep(cfg)
    assert len(records) == 1
    record = records[0]
    inst = BipartiteInstance.from_counts(4, 3, 2, 1)
    assert record.part0_mass == bound_satisfaction_mass(inst, 0, 5).satisfied_mass
    assert record.part1_mass == bound_satisfaction_mass(inst, 1, 5).satisfied_mass
    assert record.total_mass == joint_success_mass(inst, 5).satisfied_mass
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


def test_run_sweep_check_subsets_match_full_run(monkeypatch):
    grid = ((2, 4), (3,), (0, 1, 2), (1,), (4, 6))
    full = run_sweep(SweepConfig(*grid))

    def no_joint_mass(self, radius):
        raise AssertionError("partial-only sweep computed a joint mass")

    with monkeypatch.context() as patched:
        patched.setattr(FullCountDistribution, "mass_within", no_joint_mass)
        partial = run_sweep(SweepConfig(*grid, checks=("partial",)))
    total = run_sweep(SweepConfig(*grid, checks=("total",)))
    for subset, enabled in ((partial, ("part0", "part1")), (total, ("total",))):
        assert len(subset) == len(full)
        for got, want in zip(subset, full):
            for name, value in dataclasses.asdict(got).items():
                prefix = name.rsplit("_", 1)[0]
                if prefix in ("part0", "part1", "total") and prefix not in enabled:
                    assert value is None
                else:
                    assert value == getattr(want, name)


def test_run_sweep_partial_only():
    cfg = SweepConfig((3,), (3,), (1,), (1,), (4,), checks=("partial",))
    record = run_sweep(cfg)[0]
    assert record.total_mass is None and record.total_pass is None
    assert record.part0_mass is not None
    assert record.all_passed() == bool(record.part0_pass and record.part1_pass)


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


def test_verify_suite_rejects_oversize_instance():
    with pytest.raises(ResourceLimitError):
        verify_suite(BipartiteInstance(9, 9), 4)


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
