"""Exact success-probability checks, parameter sweeps, and the verify suite.

Success for the error-bound guarantees is the bound event itself, i.e. the
exact probability mass of ``|k̃ - k| <= bound``; the single-part guarantee is
8/π² and the two-run total guarantee is 0.65.  The verify suite aggregates
every structural identity of the package on one instance and reports each
check with its measured value so that a corrupted operator demonstrably
fails (nothing passes vacuously).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .counting import CountDistribution, FullCountDistribution, full_count, partial_count
from .linalg import eigen_residual, unitarity_defect
from .phase_estimation import (
    GOOD_ESTIMATE_PROBABILITY,
    circuit_distribution,
    exact_distribution,
    total_variation,
)
from .reduced import (
    angles_from_instance,
    build_reduced_evolution,
    eigenphase_table,
    invariant_basis,
    reduce_operator,
    spectral_decomposition,
)
from .errors import ResourceLimitError
from .walk import (
    BipartiteInstance,
    build_ancilla_oracle,
    build_coin,
    build_evolution,
    build_oracle,
    build_part_oracle,
    build_shift,
    restrict_to_plus_ancilla,
    uniform_state,
)

__all__ = [
    "FULL_COUNT_SUCCESS_PROBABILITY",
    "MAX_FULL_SPACE_EDGES",
    "MAX_SWEEP_POINTS",
    "BoundReport",
    "bound_satisfaction_mass",
    "joint_success_mass",
    "SweepConfig",
    "SweepRecord",
    "parse_sweep_config",
    "load_sweep_config",
    "run_sweep",
    "CheckResult",
    "VerificationReport",
    "verify_suite",
]

logger = logging.getLogger(__name__)

FULL_COUNT_SUCCESS_PROBABILITY = 0.65

# Guard for routines that build the full arc space.
MAX_FULL_SPACE_EDGES = 64

# Candidate points of a sweep grid: the product of its five value-list lengths.
MAX_SWEEP_POINTS = 10**6

# Verify-suite limits.  A bound mass passes when it reaches its threshold
# less _THRESHOLD_SLACK, which absorbs rounding in the exact sums.
_STRUCTURAL_TOL = 1e-10
_IDENTITY_TOL = 1e-12
_RESIDUAL_TOL = 1e-12
_CROSS_MODE_TOL = 1e-8
_THRESHOLD_SLACK = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """Exact mass of an error-bound event next to its guaranteed threshold."""

    bound_value: float
    satisfied_mass: float
    threshold: float

    def passed(self) -> bool:
        return self.satisfied_mass >= self.threshold - _THRESHOLD_SLACK


def _part_report(dist: CountDistribution) -> BoundReport:
    return BoundReport(dist.bound, dist.mass_within(dist.bound), GOOD_ESTIMATE_PROBABILITY)


def _total_report(joint: FullCountDistribution) -> BoundReport:
    return BoundReport(joint.bound, joint.mass_within(joint.bound), FULL_COUNT_SUCCESS_PROBABILITY)


def bound_satisfaction_mass(inst: BipartiteInstance, part: int, p: int) -> BoundReport:
    """Exact mass of ``|k̃_j - k_j| <= bound`` for the single-part count."""
    return _part_report(partial_count(p, inst, part, "exact"))


def joint_success_mass(inst: BipartiteInstance, p: int) -> BoundReport:
    """Exact joint mass of ``|k̃ - k| <= bound`` for the two-run total count."""
    return _total_report(full_count(p, inst, "exact"))


_GRID_FIELDS = ("n0_values", "n1_values", "k0_values", "k1_values", "p_values")


def _length(values) -> int:
    """Number of values; a parsed ``lo..hi`` range is counted without expanding it."""
    return values.stop - values.start if isinstance(values, range) else len(values)


@dataclass(frozen=True)
class SweepConfig:
    """Grid of instances and register sizes to check, plus output options.

    A value list may be given as a ``range``; the grid is sized against
    :data:`MAX_SWEEP_POINTS` before any list is expanded into a tuple.
    """

    n0_values: tuple[int, ...]
    n1_values: tuple[int, ...]
    k0_values: tuple[int, ...]
    k1_values: tuple[int, ...]
    p_values: tuple[int, ...]
    checks: tuple[str, ...] = ("partial", "total")
    output_format: str = "csv"

    def __post_init__(self):
        points = math.prod(_length(getattr(self, name)) for name in _GRID_FIELDS)
        if points > MAX_SWEEP_POINTS:
            raise ResourceLimitError(
                f"sweep limited to {MAX_SWEEP_POINTS} candidate grid points, got {points}")
        for name in _GRID_FIELDS:
            values = tuple(getattr(self, name))
            object.__setattr__(self, name, values)
            if len(values) == 0:
                raise ValueError(f"{name} must be nonempty")
            if any(v < 0 for v in values):
                raise ValueError(f"{name} must be nonnegative, got {values}")
        if any(v < 1 for v in self.n0_values + self.n1_values + self.p_values):
            raise ValueError("part sizes and register sizes must be at least 1")
        unknown = set(self.checks) - {"partial", "total"}
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        if len(self.checks) == 0:
            raise ValueError("at least one check must be enabled")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"output format must be csv or json, got {self.output_format!r}")


def _parse_int_values(text: str, key: str) -> range | tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"{key}: empty range {text!r}")
        return range(lo, hi + 1)
    return tuple(int(item.strip()) for item in text.split(",") if item.strip())


def _largest(values: range | tuple[int, ...]) -> int:
    return values[-1] if isinstance(values, range) else max(values)


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse the line-oriented ``key = value`` sweep configuration format.

    Integer ranges are written ``lo..hi`` (inclusive) and lists are
    comma-separated.  Blank lines and ``#`` comments are ignored; unknown
    keys are errors.  ``k0``/``k1`` default to the full range allowed by the
    largest part size.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()

    known = {"n0", "n1", "k0", "k1", "p", "checks", "format"}
    unknown = set(values) - known
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
    for required in ("n0", "n1", "p"):
        if required not in values:
            raise ValueError(f"missing required key {required!r}")

    n0 = _parse_int_values(values["n0"], "n0")
    n1 = _parse_int_values(values["n1"], "n1")
    k0 = _parse_int_values(values["k0"], "k0") if "k0" in values else range(_largest(n0) + 1)
    k1 = _parse_int_values(values["k1"], "k1") if "k1" in values else range(_largest(n1) + 1)
    p = _parse_int_values(values["p"], "p")
    checks = tuple(c.strip() for c in values.get("checks", "partial,total").split(",") if c.strip())
    return SweepConfig(n0, n1, k0, k1, p, checks, values.get("format", "csv"))


def load_sweep_config(path) -> SweepConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_sweep_config(handle.read())


@dataclass(frozen=True)
class SweepRecord:
    """Exact bound masses and pass flags for one grid point.

    Fields for disabled checks are None.
    """

    n0: int
    n1: int
    k0: int
    k1: int
    p: int
    theta0: float
    theta1: float
    mu: float
    sigma: float
    part0_bound: float | None
    part0_mass: float | None
    part0_pass: bool | None
    part1_bound: float | None
    part1_mass: float | None
    part1_pass: bool | None
    total_bound: float | None
    total_mass: float | None
    total_pass: bool | None

    FIELD_ORDER: ClassVar[tuple[str, ...]]

    def all_passed(self) -> bool:
        flags = (self.part0_pass, self.part1_pass, self.total_pass)
        return all(f for f in flags if f is not None)


SweepRecord.FIELD_ORDER = tuple(field.name for field in fields(SweepRecord))


def _sweep_point(point: tuple[int, int, int, int, int], checks: tuple[str, ...]) -> SweepRecord:
    n0, n1, k0, k1, p = point
    inst = BipartiteInstance.from_counts(n0, n1, k0, k1)
    angles = angles_from_instance(inst)
    joint = full_count(p, inst, "exact")
    partial, total = "partial" in checks, "total" in checks
    reports = {
        "part0": _part_report(joint.part0) if partial else None,
        "part1": _part_report(joint.part1) if partial else None,
        "total": _total_report(joint) if total else None,
    }
    fields = {}
    for name, report in reports.items():
        values = (None,) * 3 if report is None else (
            report.bound_value, report.satisfied_mass, report.passed())
        fields.update(zip((f"{name}_bound", f"{name}_mass", f"{name}_pass"), values))
    return SweepRecord(
        n0=n0, n1=n1, k0=k0, k1=k1, p=p,
        theta0=angles.theta0, theta1=angles.theta1, mu=angles.mu, sigma=angles.sigma,
        **fields,
    )


def run_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Evaluate every feasible grid point, in lexicographic (n0,n1,k0,k1,p) order.

    Infeasible points (a marked count exceeding its part size) are skipped
    with one INFO summary (per-point notices at DEBUG).  The result is a pure
    function of the config.
    """
    points = []
    skipped = 0
    for n0 in cfg.n0_values:
        for n1 in cfg.n1_values:
            for k0 in cfg.k0_values:
                for k1 in cfg.k1_values:
                    if k0 > n0 or k1 > n1:
                        logger.debug("skipping infeasible grid point n0=%d n1=%d k0=%d k1=%d",
                                     n0, n1, k0, k1)
                        skipped += 1
                        continue
                    for p in cfg.p_values:
                        points.append((n0, n1, k0, k1, p))
    if skipped:
        logger.info("skipped %d infeasible grid points", skipped)
    return [_sweep_point(pt, cfg.checks) for pt in points]


@dataclass(frozen=True)
class CheckResult:
    """One verify-suite check: measured value against its limit.

    ``kind`` is "max" when the value must stay at or below the limit and
    "min" when it must reach the limit less ``_THRESHOLD_SLACK``.
    """

    name: str
    value: float
    limit: float
    kind: str
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_suite(inst: BipartiteInstance, p: int, *,
                 oracle: np.ndarray | None = None) -> VerificationReport:
    """Run every structural and statistical check on one instance.

    ``oracle`` overrides the constructed oracle (used as a negative control:
    a single wrong sign must fail the invariance or reconciliation checks).

    Raises
    ------
    ResourceLimitError
        If the instance has more than :data:`MAX_FULL_SPACE_EDGES` edges.
    """
    if inst.num_edges > MAX_FULL_SPACE_EDGES:
        raise ResourceLimitError(
            f"verify suite limited to {MAX_FULL_SPACE_EDGES} edges, got {inst.num_edges}")
    checks: list[CheckResult] = []

    def check_max(name: str, value: float, limit: float) -> None:
        checks.append(CheckResult(name, float(value), limit, "max", float(value) <= limit))

    shift = build_shift(inst)
    coin = build_coin(inst)
    oracle_matrix = build_oracle(inst) if oracle is None else np.asarray(oracle, dtype=np.complex128)
    part_oracles = {j: build_part_oracle(inst, j) for j in (0, 1)}
    ancilla_oracles = {j: build_ancilla_oracle(inst, j) for j in (0, 1)}
    evolution = build_evolution(inst, oracle_matrix)

    check_max("unitarity_shift", unitarity_defect(shift), _STRUCTURAL_TOL)
    check_max("unitarity_coin", unitarity_defect(coin), _STRUCTURAL_TOL)
    check_max("unitarity_oracle", unitarity_defect(oracle_matrix), _STRUCTURAL_TOL)
    for j in (0, 1):
        check_max(f"unitarity_part_oracle_{j}", unitarity_defect(part_oracles[j]), _STRUCTURAL_TOL)
        check_max(f"unitarity_ancilla_oracle_{j}", unitarity_defect(ancilla_oracles[j]), _STRUCTURAL_TOL)
    check_max("unitarity_evolution", unitarity_defect(evolution), _STRUCTURAL_TOL)

    identity = np.eye(inst.dim)
    check_max("involution_shift", np.abs(shift @ shift - identity).max(), _IDENTITY_TOL)
    check_max("involution_coin", np.abs(coin @ coin - identity).max(), _IDENTITY_TOL)
    check_max("involution_oracle", np.abs(oracle_matrix @ oracle_matrix - identity).max(), _IDENTITY_TOL)
    check_max("part_oracle_product",
              np.abs(part_oracles[0] @ part_oracles[1] - oracle_matrix).max(), _IDENTITY_TOL)
    for j in (0, 1):
        check_max(f"ancilla_restriction_{j}",
                  np.abs(restrict_to_plus_ancilla(ancilla_oracles[j]) - part_oracles[j]).max(),
                  _IDENTITY_TOL)

    basis = invariant_basis(inst)
    angles = angles_from_instance(inst)
    projected, leakage = reduce_operator(evolution, basis)
    check_max("invariant_leakage", leakage, _STRUCTURAL_TOL)
    present = basis.present_indices()
    reduced_matrix = build_reduced_evolution(angles)
    analytic = reduced_matrix[np.ix_(present, present)]
    check_max("reduced_reconciliation", np.abs(projected - analytic).max(), _STRUCTURAL_TOL)

    decomposition = spectral_decomposition(angles)
    residual = max(eigen_residual(reduced_matrix, r.eigenvalue, r.eigenvector)
                   for r in decomposition.records)
    check_max("eigen_residual_max", residual, _RESIDUAL_TOL)
    eigenvectors = np.column_stack([r.eigenvector for r in decomposition.records])
    check_max("eigenvector_gram_defect",
              np.abs(eigenvectors.conj().T @ eigenvectors - np.eye(8)).max(), _RESIDUAL_TOL)

    cos_mu, cos_sigma = np.cos(angles.mu), np.cos(angles.sigma)
    closed_forms = np.array([
        (1 + cos_sigma) / 8, (1 - cos_sigma) / 8, (1 + cos_sigma) / 8, (1 - cos_sigma) / 8,
        (1 + cos_mu) / 8, (1 - cos_mu) / 8, (1 + cos_mu) / 8, (1 - cos_mu) / 8,
    ])
    overlaps = decomposition.overlaps()
    check_max("overlap_closed_form", np.abs(overlaps - closed_forms).max(), _RESIDUAL_TOL)
    check_max("overlap_sum", abs(overlaps.sum() - 1.0), _RESIDUAL_TOL)

    analytic_dist = exact_distribution(eigenphase_table(angles), p)
    circuit_dist = circuit_distribution(evolution, uniform_state(inst), p)
    check_max("analytic_circuit_tv", total_variation(analytic_dist, circuit_dist), _CROSS_MODE_TOL)

    joint = full_count(p, inst, "exact")
    reports = (_part_report(joint.part0), _part_report(joint.part1), _total_report(joint))
    for name, report in zip(("part0", "part1", "total"), reports):
        checks.append(CheckResult(f"{name}_bound_mass", report.satisfied_mass, report.threshold,
                                  "min", report.passed()))

    return VerificationReport(tuple(checks))
