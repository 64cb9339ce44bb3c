"""Marked-vertex counting via phase estimation, as exact pushforward distributions.

Each algorithm estimates an eigenphase, folds it into a canonical quadrant,
and converts it to a count through ``k = n sin²``.  On a ``P``-point register
the fold is an integer map on the grid index: ``m → min(m, P − m)`` reflects
phases in (π, 2π) onto [0, π], and for the walk ``→ min(·, P/2 − ·)`` folds
them onto [0, π/2].  The folded phase is ``2π·folded/P``, so outcomes that
are mirror images in exact arithmetic get bit-equal estimates.  Every routine
pushes the whole grid distribution through that pipeline, so the error bounds
and success probabilities become checkable statements about exact
probability masses instead of statistical claims.  There is no single-shot
mode: the CLI's ``count`` command draws runs by placing one uniform per part
per trial on the cumulative sum of a distribution's ``mass``.

A pushforward is the outcome distribution on the grid plus the grid cell
each outcome folds onto and its count (:class:`CountDistribution`).

Counting a single part runs the walk whose oracle marks only that part, so
its distribution depends on ``(n_j, k_j, p)`` alone; the other part's size
and marks are never read.  Counts are real numbers: the error bounds apply
before any rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase_estimation import TWO_PI, EigenphaseMixture, PhaseDistribution, exact_distribution
from .reduced import WalkAngles, eigenphase_table, part_angle
from .walk import BipartiteInstance

__all__ = [
    "partial_count_error_bound",
    "adjusted_partial_count_error_bound",
    "full_count_error_bound",
    "adjusted_full_count_error_bound",
    "CountDistribution",
    "FullCountDistribution",
    "grover_mixture",
    "partial_count",
    "full_count",
    "grover_count",
]


def partial_count_error_bound(k_part: int, n_part: int, grid_size: float) -> float:
    """Nominal error radius for a single-part count: ``2π sqrt(k(n-k))/P + π² n/P²``.

    This is the radius the verification suite and sweeps report masses
    against.  Caution: the estimated phase is ``theta/2``, so a grid-neighbor
    estimate pins ``theta`` itself only to ``4π/P``, one bit worse than this
    radius assumes; exact-mass computation shows the good-estimate probability
    8/π² is *not* reached at this radius for some instances (for example one
    part of size 7 with 3 marks at p = 5).  The radius that is always reached
    is :func:`adjusted_partial_count_error_bound`.  ``grid_size`` may be any
    positive resolution, so the adjusted radius can evaluate it at ``P/2``.
    """
    if not grid_size > 0:
        raise ValueError(f"grid size must be positive, got {grid_size}")
    spread = math.sqrt(k_part * (n_part - k_part))
    return TWO_PI * spread / grid_size + math.pi**2 * n_part / grid_size**2


def _check_register_grid(grid_size: int) -> None:
    if grid_size < 1:
        raise ValueError(f"grid size must be at least 1, got {grid_size}")


def adjusted_partial_count_error_bound(k_part: int, n_part: int, grid_size: int) -> float:
    """Error radius the single-part estimate provably satisfies: ``4π sqrt(k(n-k))/P + 4π² n/P²``.

    Derived by propagating the grid precision of the half-angle through the
    count formula: a good estimate of ``theta/2`` on a P-point grid pins
    ``theta`` to ``4π/P``.  It is the nominal radius evaluated at ``P/2``
    (halving is exact, so the two agree bit for bit).  The test suite
    confirms by exhaustive exact-mass computation that the estimate lands
    within this radius with probability at least 8/π².
    """
    _check_register_grid(grid_size)
    return partial_count_error_bound(k_part, n_part, grid_size / 2)


def full_count_error_bound(k0: int, n0: int, k1: int, n1: int, grid_size: float) -> float:
    """Nominal error radius for the two-run total count: the sum of the part radii."""
    return partial_count_error_bound(k0, n0, grid_size) + partial_count_error_bound(k1, n1, grid_size)


def adjusted_full_count_error_bound(k0: int, n0: int, k1: int, n1: int, grid_size: int) -> float:
    """Provable error radius for the total count: the nominal one at ``P/2``."""
    _check_register_grid(grid_size)
    return full_count_error_bound(k0, n0, k1, n1, grid_size / 2)


@dataclass(frozen=True, eq=False)
class CountDistribution(PhaseDistribution):
    """Exact pushforward distribution of a single estimation run.

    The outcome distribution on the ``P``-point grid, plus read-only arrays
    indexed by grid index: ``fold``, the cell each outcome folds onto, whose
    folded phase is ``omegas()[fold]``, and ``k_est``, its count.  Cells
    ``0..F`` (``F = fold.max()``) fold onto themselves, and their counts
    strictly increase.  ``part`` is 0 or 1 for bipartite single-part counts
    and None for the unstructured-search baseline, where the folded phase
    ``θ̃`` lies in [0, π] and ``k_est = n_target sin²(θ̃ / 2)``.
    """

    n_target: int
    k_true: int
    part: int | None
    bound: float
    oracle_queries: int
    k_est: np.ndarray
    fold: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        for name, dtype in (("k_est", np.float64), ("fold", np.intp)):
            values = np.array(getattr(self, name), dtype=dtype)
            if values.shape != self.mass.shape:
                raise ValueError(f"{name} needs {2**self.p} values for p={self.p}, got {values.shape}")
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    def mass_within(self, radius: float) -> float:
        """Exact probability that the estimate lies within ``radius`` of ``k_true``."""
        return float(self.mass[np.abs(self.k_est - float(self.k_true)) <= radius].sum())


def _edge(k0: np.ndarray, k1_sorted: np.ndarray, guess: np.ndarray, holds) -> np.ndarray:
    """Per part-0 index, the first sorted position ``j`` where ``holds(k0 + k1_sorted[j])`` fails.

    ``holds`` must be true and then false as ``j`` grows, so each edge steps
    from its ``searchsorted`` guess until the predicate changes value there.
    """
    edge = np.searchsorted(k1_sorted, guess)
    last = k1_sorted.size - 1
    while True:
        up = (edge <= last) & holds(k0 + k1_sorted[np.minimum(edge, last)])
        down = (edge > 0) & ~holds(k0 + k1_sorted[np.maximum(edge - 1, 0)])
        if not (up.any() or down.any()):
            return edge
        edge = edge + up - down


@dataclass(frozen=True, eq=False)
class FullCountDistribution:
    """Product distribution of the two independent single-part runs."""

    p: int
    k_true: int
    bound: float
    oracle_queries: int
    part0: CountDistribution
    part1: CountDistribution

    def mass_within(self, radius: float) -> float:
        """Exact joint probability that ``k̃0 + k̃1`` lies within ``radius`` of ``k_true``.

        ``O(P log P)``: part 1 is sorted by its fold, and so by ``k̃1``, with
        prefix sums of its mass, so the pairs with a given ``k̃0`` inside the
        event form one run of sorted positions.  Each end of that run starts at a
        ``searchsorted`` guess and steps to where the exact predicate
        ``(k̃0 + k̃1) - k_true < -radius`` (or ``<= radius``) changes value.
        Rounding is monotone, so the predicate is monotone in ``k̃1`` and ties
        fall as in the literal sum over all ``P²`` pairs.
        """
        if math.isnan(radius):
            return 0.0
        c = float(self.k_true)
        k0, m0 = self.part0.k_est, self.part0.mass
        order = np.argsort(self.part1.fold, kind="stable")
        k1 = self.part1.k_est[order]
        prefix = np.concatenate(([0.0], np.cumsum(self.part1.mass[order])))
        lo = _edge(k0, k1, (c - radius) - k0, lambda t: t - c < -radius)
        hi = _edge(k0, k1, (c + radius) - k0, lambda t: t - c <= radius)
        inside = np.where(hi > lo, prefix[hi] - prefix[lo], 0.0)
        return float(m0 @ inside)


def _mirror(index: np.ndarray, size: int) -> np.ndarray:
    """Fold grid indices about ``size / 2``: ``m → min(m, size − m)``."""
    return np.minimum(index, size - index)


def _count_distribution(mixture: EigenphaseMixture, p: int, n_target: int, k_true: int,
                        part: int | None, fold, to_k) -> CountDistribution:
    """Push ``mixture`` forward: ``fold`` maps grid indices, ``to_k`` folded phases."""
    dist = exact_distribution(mixture, p)  # refuses a register before 2**p is formed
    size = dist.n_points
    cells = fold(np.arange(size), size)
    return CountDistribution(p=p, mass=dist.mass, n_target=n_target, k_true=k_true, part=part,
                             bound=partial_count_error_bound(k_true, n_target, size),
                             oracle_queries=size - 1, k_est=to_k(dist.omegas()[cells]), fold=cells)


def partial_count(p: int, inst: BipartiteInstance, part: int) -> CountDistribution:
    """Count the marked vertices of one part: the exact :class:`CountDistribution`.

    Runs phase estimation on the walk whose oracle marks only ``part``, the
    closed form at angles ``(theta_part, 0)`` for either part; folds each
    outcome to [0, π/2] and applies ``k = n_part sin²``.  The run costs
    ``P - 1`` oracle queries.

    For ``k_part`` in ``{0, n_part}`` the count is exact (mass 1 on
    ``k_part``) given ``p >= 2``; at ``p = 1`` both give 0.  The paper's
    ``8(1 − 2^{-t})/π²`` is read with ``t = p``, an assumption.
    """
    if part not in (0, 1):
        raise ValueError(f"part must be 0 or 1, got {part}")
    n_part, k_part = (inst.n0, inst.k0) if part == 0 else (inst.n1, inst.k1)
    return _count_distribution(
        eigenphase_table(WalkAngles(part_angle(k_part, n_part), 0.0)),
        p, n_part, k_part, part,
        lambda m, size: _mirror(_mirror(m, size), size // 2),
        lambda theta: n_part * np.sin(theta) ** 2)


def full_count(p: int, inst: BipartiteInstance) -> FullCountDistribution:
    """Count all marked vertices by running the single-part count on each part.

    The two runs use fresh registers and are statistically independent, so the
    exact joint distribution is the product measure over outcome pairs, held
    as the two part distributions.  Total cost is ``2P - 2`` oracle queries.
    """
    return FullCountDistribution(
        p=p,
        k_true=inst.num_marked,
        # Parts first: their engine rejects a register before 2**p is formed.
        part0=partial_count(p, inst, 0),
        part1=partial_count(p, inst, 1),
        bound=full_count_error_bound(inst.k0, inst.n0, inst.k1, inst.n1, 2**p),
        oracle_queries=2 * (2**p - 1),
    )


def grover_mixture(n: int, k: int) -> EigenphaseMixture:
    """Eigenphase mixture of the unstructured-search rotation started uniformly.

    The uniform state splits evenly over the two rotation eigenvectors, so the
    phases ``±theta`` with ``sin²(theta/2) = k/n`` carry weight 1/2 each.
    ``theta`` is :func:`~qwcount.reduced.part_angle`, the walk's part angle,
    so a walk part and Grover search read the same float for ``k/n``.
    """
    if n < 1:
        raise ValueError(f"search space size must be at least 1, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"marked count {k} out of range for n={n}")
    return EigenphaseMixture([part_angle(k, n)], [[0.5, 0.5]])


def grover_count(p: int, n: int, k: int, mode: str = "exact") -> CountDistribution:
    """Count marked elements of an unstructured search space of size ``n``.

    Baseline counterpart of :func:`partial_count`, and like it returns the
    exact :class:`CountDistribution`: the estimated eigenphase is the full
    rotation angle, so only the first reflection is applied (the angle
    already lies in [0, π]) and ``k̃ = n sin²(θ̃/2)``.  Its error radius is
    the single-part one, :func:`partial_count_error_bound`.

    ``mode`` accepts only ``"exact"``, and any other value raises
    ``ValueError``.  It stays because the benchmark's workloads pass
    ``"exact"`` positionally.
    """
    if mode != "exact":
        raise ValueError(f"mode must be 'exact', got {mode!r}")
    return _count_distribution(grover_mixture(n, k), p, n, k, None, _mirror,
                               lambda theta: n * np.sin(theta / 2.0) ** 2)
