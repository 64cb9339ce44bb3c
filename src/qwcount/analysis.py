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
from .linalg import _eigen_residual, _gram_defect, _identity_distance
from .phase_estimation import (
    GOOD_ESTIMATE_PROBABILITY,
    _circuit_marginal,
    exact_distribution,
    total_variation,
)
from .reduced import (
    _invariant_basis,
    _reduce_operator,
    angles_from_instance,
    build_reduced_evolution,
    eigenphase_table,
    spectral_decomposition,
)
from .errors import ResourceLimitError
from .walk import (
    MAX_FULL_SPACE_EDGES,
    BipartiteInstance,
    _ancilla_blocks,
    _arc_marks,
    _oracle_signs,
    _step_from_coin,
    build_coin,
    uniform_state,
)

__all__ = [
    "FULL_COUNT_SUCCESS_PROBABILITY",
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
    return _part_report(partial_count(p, inst, part))


def joint_success_mass(inst: BipartiteInstance, p: int) -> BoundReport:
    """Exact joint mass of ``|k̃ - k| <= bound`` for the two-run total count."""
    return _total_report(full_count(p, inst))


@dataclass(frozen=True)
class SweepConfig:
    """Grid of instances and register sizes to check; every point gets every check.

    A value list may be given as a ``range``; the grid is sized against
    :data:`MAX_SWEEP_POINTS` before any list is expanded into a tuple.
    """

    n0_values: tuple[int, ...]
    n1_values: tuple[int, ...]
    k0_values: tuple[int, ...]
    k1_values: tuple[int, ...]
    p_values: tuple[int, ...]

    def __post_init__(self):
        names = [field.name for field in fields(self)]
        try:
            points = math.prod(len(getattr(self, name)) for name in names)
        except OverflowError:  # len() of a range longer than sys.maxsize
            points = math.inf
        if points > MAX_SWEEP_POINTS:
            raise ResourceLimitError(
                f"sweep limited to {MAX_SWEEP_POINTS} candidate grid points, got {points}")
        for name in names:
            values = tuple(getattr(self, name))
            object.__setattr__(self, name, values)
            if len(values) == 0:
                raise ValueError(f"{name} must be nonempty")
            if any(v < 0 for v in values):
                raise ValueError(f"{name} must be nonnegative, got {values}")
        if any(v < 1 for v in self.n0_values + self.n1_values + self.p_values):
            raise ValueError("part sizes and register sizes must be at least 1")


def _parse_int_values(text: str, key: str) -> range | tuple[int, ...]:
    text = text.strip()
    lo, span, hi = text.partition("..")
    try:
        if span:
            values = range(int(lo), int(hi) + 1)
        else:
            values = tuple(int(item) for item in text.split(",") if item.strip())
    except ValueError:
        raise ValueError(f"{key}: expected integers, got {text!r}") from None
    if not values:
        raise ValueError(f"{key}: empty range {text!r}" if span else f"{key}: no values")
    return values


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

    unknown = set(values) - {"n0", "n1", "k0", "k1", "p"}
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
    for required in ("n0", "n1", "p"):
        if required not in values:
            raise ValueError(f"missing required key {required!r}")

    n0 = _parse_int_values(values["n0"], "n0")
    n1 = _parse_int_values(values["n1"], "n1")
    k0 = _parse_int_values(values["k0"], "k0") if "k0" in values else range(_largest(n0) + 1)
    k1 = _parse_int_values(values["k1"], "k1") if "k1" in values else range(_largest(n1) + 1)
    return SweepConfig(n0, n1, k0, k1, _parse_int_values(values["p"], "p"))


def load_sweep_config(path) -> SweepConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_sweep_config(handle.read())


@dataclass(frozen=True)
class SweepRecord:
    """Exact bound masses and pass flags for one grid point: both parts and the total."""

    n0: int
    n1: int
    k0: int
    k1: int
    p: int
    theta0: float
    theta1: float
    mu: float
    sigma: float
    part0_bound: float
    part0_mass: float
    part0_pass: bool
    part1_bound: float
    part1_mass: float
    part1_pass: bool
    total_bound: float
    total_mass: float
    total_pass: bool

    FIELD_ORDER: ClassVar[tuple[str, ...]]

    def all_passed(self) -> bool:
        return self.part0_pass and self.part1_pass and self.total_pass


SweepRecord.FIELD_ORDER = tuple(field.name for field in fields(SweepRecord))


def _sweep_point(point: tuple[int, int, int, int, int]) -> SweepRecord:
    n0, n1, k0, k1, p = point
    inst = BipartiteInstance.from_counts(n0, n1, k0, k1)
    angles = angles_from_instance(inst)
    joint = full_count(p, inst)
    reports = {"part0": _part_report(joint.part0), "part1": _part_report(joint.part1),
               "total": _total_report(joint)}
    checks = {}
    for name, report in reports.items():
        checks.update({f"{name}_bound": report.bound_value, f"{name}_mass": report.satisfied_mass,
                       f"{name}_pass": report.passed()})
    return SweepRecord(
        n0=n0, n1=n1, k0=k0, k1=k1, p=p,
        theta0=angles.theta0, theta1=angles.theta1, mu=angles.mu, sigma=angles.sigma,
        **checks,
    )


def run_sweep(cfg: SweepConfig) -> list[SweepRecord]:
    """Evaluate every feasible grid point, in lexicographic (n0,n1,k0,k1,p) order.

    Infeasible points (a marked count exceeding its part size) are skipped
    with one INFO summary (per-point notices at DEBUG).  The result is a pure
    function of the config.

    Raises
    ------
    ValueError
        If every grid point is infeasible, so there is nothing to check.
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
    if not points:
        raise ValueError("sweep config has no feasible grid points")
    return [_sweep_point(pt) for pt in points]


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


def _index_map_defects(index_map: np.ndarray) -> tuple[float, float]:
    """Unitarity and involution defects of the 0/1 matrix whose row ``a`` holds
    its 1 in column ``index_map[a]``, exactly as the dense formulas give them:
    its Gram is ``diag(bincount(index_map))``, and its square is the matrix
    of ``index_map[index_map]``, which differs from the identity by exactly
    1 wherever that map moves an index."""
    arcs = np.arange(len(index_map))
    unitarity = np.abs(np.bincount(index_map, minlength=len(index_map)) - 1).max()
    return float(unitarity), 0.0 if np.array_equal(index_map[index_map], arcs) else 1.0


def _sign_defect(signs: np.ndarray) -> float:
    """``max |s² − 1|``: the Gram defect of ``diag(s)``, and its distance from
    an involution, exactly as the dense products give them."""
    return float(np.abs(signs * signs - 1).max())


def _ancilla_defects(blocks: np.ndarray, part_signs: np.ndarray) -> tuple[float, float]:
    """Unitarity defect of the block-diagonal matrix of ``blocks``, and the
    distance of its ``|+⟩``-ancilla restriction from ``diag(part_signs)``,
    exactly as the dense Gram and the strided restriction give them: block by
    block, ``B^T B`` and ``((b00 + b01) + (b10 + b11)) / 2``."""
    gram = blocks.transpose(0, 2, 1) @ blocks
    gram -= np.eye(2)
    restriction = 0.5 * ((blocks[:, 0, 0] + blocks[:, 0, 1]) + (blocks[:, 1, 0] + blocks[:, 1, 1]))
    return float(np.abs(gram).max()), float(np.abs(restriction - part_signs).max())


def verify_suite(inst: BipartiteInstance, p: int, *,
                 oracle: np.ndarray | None = None) -> VerificationReport:
    """Run every structural and statistical check on one instance.

    ``oracle`` overrides the constructed oracle (used as a negative control:
    a single wrong sign must fail the invariance or reconciliation checks).
    It must be a real diagonal matrix, and its diagonal is read as the
    oracle's signs.

    The shift, the oracle, the part oracles and the ancilla oracles are
    checked on the structure :mod:`qwcount.walk` builds them from (an index
    map, sign vectors, one 2x2 block per arc), and each of their rows
    reports the value the dense formula would give.  The step is formed from
    the suite's coin as :func:`~qwcount.walk.build_evolution` forms it.  The
    coin, the step, the invariant reduction and the circuit stay dense.

    When the circuit engine refuses the step (a defect above its tolerance,
    or masses that do not sum to 1), ``analytic_circuit_tv`` reports 1.0, the
    largest possible total variation, so the row fails and the report is
    still returned.

    Raises
    ------
    ResourceLimitError
        If the instance has more than :data:`MAX_FULL_SPACE_EDGES` edges,
        the arc-space guard of :mod:`qwcount.walk`, or ``p`` is past the
        circuit engine's limit, which is met before any distribution is formed.
    ValueError
        If ``oracle`` is not a real diagonal matrix of the arc dimension, or
        ``p < 1``.
    """
    checks: list[CheckResult] = []

    def check_max(name: str, value: float, limit: float) -> None:
        checks.append(CheckResult(name, float(value), limit, "max", float(value) <= limit))

    marks = _arc_marks(inst)
    part_signs = {j: _oracle_signs(marks, j) for j in (0, 1)}
    ancilla = {j: _ancilla_defects(_ancilla_blocks(marks, j), part_signs[j]) for j in (0, 1)}
    coin = build_coin(inst)
    signs, evolution = _step_from_coin(inst, coin, oracle, marks)
    shift_unitarity, shift_involution = _index_map_defects(marks[0])
    oracle_defect = _sign_defect(signs)

    check_max("unitarity_shift", shift_unitarity, _STRUCTURAL_TOL)
    check_max("unitarity_coin", _gram_defect(coin), _STRUCTURAL_TOL)
    check_max("unitarity_oracle", oracle_defect, _STRUCTURAL_TOL)
    for j in (0, 1):
        check_max(f"unitarity_part_oracle_{j}", _sign_defect(part_signs[j]), _STRUCTURAL_TOL)
        check_max(f"unitarity_ancilla_oracle_{j}", ancilla[j][0], _STRUCTURAL_TOL)
    evolution_defect = _gram_defect(evolution)
    check_max("unitarity_evolution", evolution_defect, _STRUCTURAL_TOL)

    check_max("involution_shift", shift_involution, _IDENTITY_TOL)
    check_max("involution_coin", _identity_distance(coin @ coin), _IDENTITY_TOL)
    check_max("involution_oracle", oracle_defect, _IDENTITY_TOL)
    check_max("part_oracle_product", np.abs(part_signs[0] * part_signs[1] - signs).max(),
              _IDENTITY_TOL)
    for j in (0, 1):
        check_max(f"ancilla_restriction_{j}", ancilla[j][1], _IDENTITY_TOL)

    basis = _invariant_basis(marks)
    angles = angles_from_instance(inst)
    projected, leakage = _reduce_operator(evolution, basis.matrix())
    check_max("invariant_leakage", leakage, _STRUCTURAL_TOL)
    present = basis.present_indices()
    reduced_matrix = build_reduced_evolution(angles)
    analytic = reduced_matrix[np.ix_(present, present)]
    check_max("reduced_reconciliation", np.abs(projected - analytic).max(), _STRUCTURAL_TOL)

    decomposition = spectral_decomposition(angles)
    residual = max(_eigen_residual(reduced_matrix, r.eigenvalue, r.eigenvector)
                   for r in decomposition.records)
    check_max("eigen_residual_max", residual, _RESIDUAL_TOL)
    eigenvectors = np.column_stack([r.eigenvector for r in decomposition.records])
    check_max("eigenvector_gram_defect",
              _identity_distance(eigenvectors.conj().T @ eigenvectors), _RESIDUAL_TOL)

    cos_mu, cos_sigma = np.cos(angles.mu), np.cos(angles.sigma)
    closed_forms = np.array([
        (1 + cos_sigma) / 8, (1 - cos_sigma) / 8, (1 + cos_sigma) / 8, (1 - cos_sigma) / 8,
        (1 + cos_mu) / 8, (1 - cos_mu) / 8, (1 + cos_mu) / 8, (1 - cos_mu) / 8,
    ])
    overlaps = decomposition.overlaps()
    check_max("overlap_closed_form", np.abs(overlaps - closed_forms).max(), _RESIDUAL_TOL)
    check_max("overlap_sum", abs(overlaps.sum() - 1.0), _RESIDUAL_TOL)

    # The circuit first: its own guard refuses a register before the analytic
    # engine fills one.  A refused step reports the largest possible TV; the
    # analytic engine then raises for p < 1.
    try:
        circuit_dist = _circuit_marginal(evolution, uniform_state(inst), p, evolution_defect)
    except ValueError:
        circuit_dist = None
    analytic_dist = exact_distribution(eigenphase_table(angles), p)
    circuit_tv = 1.0 if circuit_dist is None else total_variation(analytic_dist, circuit_dist)
    check_max("analytic_circuit_tv", circuit_tv, _CROSS_MODE_TOL)

    joint = full_count(p, inst)
    reports = (_part_report(joint.part0), _part_report(joint.part1), _total_report(joint))
    for name, report in zip(("part0", "part1", "total"), reports):
        checks.append(CheckResult(f"{name}_bound_mass", report.satisfied_mass, report.threshold,
                                  "min", report.passed()))

    return VerificationReport(tuple(checks))
