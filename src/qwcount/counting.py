"""Marked-vertex counting via phase estimation, with exact pushforward mode.

The single-shot algorithms estimate an eigenphase, fold it into a canonical
quadrant, and convert it to a count through ``k = n sin²``.  On a ``P``-point
register the fold is an integer map on the grid index: ``m → min(m, P − m)``
reflects phases in (π, 2π) onto [0, π], and for the walk ``→ min(·, P/2 − ·)``
folds them onto [0, π/2].  The folded phase is ``2π·folded/P``, so outcomes
that are mirror images in exact arithmetic get bit-equal estimates.  Beyond the
single-shot (``sampled``) mode, every routine offers an ``exact`` mode that
pushes the whole grid distribution through the same pipeline, so the error
bounds and success probabilities become checkable statements about exact
probability masses instead of statistical claims.

A pushforward is held as read-only float64 arrays indexed by grid index
(``omega``, ``theta_est``, ``k_est``, ``mass``); a sampled run pushes the
distribution forward once and draws grid indices from it.

Counting a single part runs the walk whose oracle marks only that part, so
its distribution depends on ``(n_j, k_j, p)`` alone; the other part's size
and marks are never read.  Counts are reported as real numbers (the
error bounds apply before any rounding); a round-half-to-even integer is
attached for convenience.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .phase_estimation import TWO_PI, EigenphaseMixture, exact_distribution
from .reduced import WalkAngles, eigenphase_table, part_angle
from .walk import BipartiteInstance, _check_part

__all__ = [
    "partial_count_error_bound",
    "adjusted_partial_count_error_bound",
    "full_count_error_bound",
    "adjusted_full_count_error_bound",
    "CountDistribution",
    "FullCountDistribution",
    "CountEstimate",
    "FullCountEstimate",
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


@dataclass(frozen=True)
class CountEstimate:
    """A single sampled count with the metadata needed to reproduce it."""

    k_est: float
    k_rounded: int
    theta_est: float
    p: int
    bound: float
    oracle_queries: int
    seed: int | None


@dataclass(frozen=True)
class FullCountEstimate:
    """A sampled total count: the sum of two independent part estimates."""

    k_est: float
    k_rounded: int
    p: int
    bound: float
    oracle_queries: int
    seed: int | None
    part0: CountEstimate
    part1: CountEstimate


@dataclass(frozen=True)
class CountDistribution:
    """Exact pushforward distribution of a single estimation run.

    ``omega``, ``theta_est``, ``k_est`` and ``mass`` are read-only float64
    arrays indexed by grid index: the grid phase, its folded estimate, the
    count estimate and the exact probability of that outcome.  ``part`` is 0
    or 1 for bipartite single-part counts and None for the unstructured-search
    baseline, where ``theta_est`` is the folded phase in [0, π] and
    ``k_est = n_target sin²(theta_est / 2)``.
    """

    p: int
    n_target: int
    k_true: int
    part: int | None
    bound: float
    oracle_queries: int
    omega: np.ndarray
    theta_est: np.ndarray
    k_est: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        for name in ("omega", "theta_est", "k_est", "mass"):
            values = np.array(getattr(self, name), dtype=np.float64)
            if values.shape != (2**self.p,):
                raise ValueError(f"{name} needs {2**self.p} values for p={self.p}, got {values.shape}")
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    def mass_within(self, radius: float) -> float:
        """Exact probability that the estimate lies within ``radius`` of ``k_true``."""
        return float(self.mass[np.abs(self.k_est - float(self.k_true)) <= radius].sum())

    @cached_property
    def _cumulative(self) -> np.ndarray:
        return np.cumsum(self.mass)

    def draw(self, rng: np.random.Generator) -> CountEstimate:
        """One sampled run: a grid index drawn by mass with one ``rng.random()``.

        The estimate carries no seed; callers that own the seed attach it.
        """
        index = min(int(np.searchsorted(self._cumulative, rng.random(), side="right")),
                    self.mass.size - 1)
        k_est = float(self.k_est[index])
        return CountEstimate(
            k_est=k_est,
            k_rounded=round(k_est),
            theta_est=float(self.theta_est[index]),
            p=self.p,
            bound=self.bound,
            oracle_queries=self.oracle_queries,
            seed=None,
        )


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


@dataclass(frozen=True)
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

        ``O(P log P)``: part 1 is sorted by ``k̃1`` with prefix sums of its
        mass, so the pairs with a given ``k̃0`` inside the event form one run
        of sorted positions.  Each end of that run starts at a
        ``searchsorted`` guess and steps to where the exact predicate
        ``(k̃0 + k̃1) - k_true < -radius`` (or ``<= radius``) changes value.
        Rounding is monotone, so the predicate is monotone in ``k̃1`` and ties
        fall as in the literal sum over all ``P²`` pairs.
        """
        if math.isnan(radius):
            return 0.0
        c = float(self.k_true)
        k0, m0 = self.part0.k_est, self.part0.mass
        order = np.argsort(self.part1.k_est, kind="stable")
        k1 = self.part1.k_est[order]
        prefix = np.concatenate(([0.0], np.cumsum(self.part1.mass[order])))
        lo = _edge(k0, k1, (c - radius) - k0, lambda t: t - c < -radius)
        hi = _edge(k0, k1, (c + radius) - k0, lambda t: t - c <= radius)
        inside = np.where(hi > lo, prefix[hi] - prefix[lo], 0.0)
        return float(m0 @ inside)

    def draw(self, rng: np.random.Generator) -> FullCountEstimate:
        """One sampled total: part 0 then part 1 drawn from the same ``rng``."""
        pick0, pick1 = self.part0.draw(rng), self.part1.draw(rng)
        total = pick0.k_est + pick1.k_est
        return FullCountEstimate(
            k_est=total,
            k_rounded=round(total),
            p=self.p,
            bound=self.bound,
            oracle_queries=self.oracle_queries,
            seed=None,
            part0=pick0,
            part1=pick1,
        )


def _check_mode(mode: str, seed) -> None:
    if mode not in ("exact", "sampled"):
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    if mode == "sampled" and seed is None:
        raise ValueError("sampled mode requires an explicit seed")


def _finish(dist, mode: str, seed: int | None):
    """The exact distribution, or one run drawn from it with ``default_rng(seed)``."""
    if mode == "exact":
        return dist
    return replace(dist.draw(np.random.default_rng(seed)), seed=seed)


def _mirror(index: np.ndarray, size: int) -> np.ndarray:
    """Fold grid indices about ``size / 2``: ``m → min(m, size − m)``."""
    return np.minimum(index, size - index)


def _count_distribution(mixture: EigenphaseMixture, p: int, n_target: int, k_true: int,
                        part: int | None, fold, to_k) -> CountDistribution:
    """Push ``mixture`` forward: ``fold`` maps grid indices, ``to_k`` folded phases."""
    size = 2**p
    dist = exact_distribution(mixture, p)
    theta_est = TWO_PI * fold(np.arange(size), size) / size
    return CountDistribution(p=p, n_target=n_target, k_true=k_true, part=part,
                             bound=partial_count_error_bound(k_true, n_target, size),
                             oracle_queries=size - 1, omega=dist.omegas(),
                             theta_est=theta_est, k_est=to_k(theta_est), mass=dist.mass)


def partial_count(p: int, inst: BipartiteInstance, part: int, mode: str = "exact",
                  seed: int | None = None):
    """Count the marked vertices of one part.

    Runs phase estimation on the walk whose oracle marks only ``part``, the
    closed form at angles ``(theta_part, 0)`` for either part; folds each
    outcome to [0, π/2] and applies ``k = n_part sin²``.  Exact mode returns
    the full :class:`CountDistribution`; sampled mode draws one outcome and
    returns a :class:`CountEstimate`.  The run costs ``P - 1`` oracle queries.
    """
    _check_part(part)
    _check_mode(mode, seed)
    n_part, k_part = (inst.n0, inst.k0) if part == 0 else (inst.n1, inst.k1)
    dist = _count_distribution(
        eigenphase_table(WalkAngles.from_thetas(part_angle(k_part, n_part), 0.0)),
        p, n_part, k_part, part,
        lambda m, size: _mirror(_mirror(m, size), size // 2),
        lambda theta: n_part * np.sin(theta) ** 2)
    return _finish(dist, mode, seed)


def full_count(p: int, inst: BipartiteInstance, mode: str = "exact",
               seed: int | None = None):
    """Count all marked vertices by running the single-part count on each part.

    The two runs use fresh registers and are statistically independent, so the
    exact joint distribution is the product measure over outcome pairs.  Total
    cost is ``2P - 2`` oracle queries.
    """
    _check_mode(mode, seed)
    joint = FullCountDistribution(
        p=p,
        k_true=inst.num_marked,
        # Parts first: their engine rejects a register before 2**p is formed.
        part0=partial_count(p, inst, 0, "exact"),
        part1=partial_count(p, inst, 1, "exact"),
        bound=full_count_error_bound(inst.k0, inst.n0, inst.k1, inst.n1, 2**p),
        oracle_queries=2 * (2**p - 1),
    )
    return _finish(joint, mode, seed)


def grover_mixture(n: int, k: int) -> EigenphaseMixture:
    """Eigenphase mixture of the unstructured-search rotation started uniformly.

    The uniform state splits evenly over the two rotation eigenvectors, so the
    phases ``±theta`` with ``sin²(theta/2) = k/n`` carry weight 1/2 each.
    """
    if n < 1:
        raise ValueError(f"search space size must be at least 1, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"marked count {k} out of range for n={n}")
    theta = 2.0 * math.asin(math.sqrt(k / n))
    return EigenphaseMixture(np.array([theta, -theta]), np.array([0.5, 0.5]))


def grover_count(p: int, n: int, k: int, mode: str = "exact",
                 seed: int | None = None):
    """Count marked elements of an unstructured search space of size ``n``.

    Baseline counterpart of :func:`partial_count`: the estimated eigenphase is
    the full rotation angle, so only the first reflection is applied (the
    angle already lies in [0, π]) and ``k̃ = n sin²(θ̃/2)``.  Its error
    radius is the single-part one, :func:`partial_count_error_bound`.
    """
    _check_mode(mode, seed)
    dist = _count_distribution(grover_mixture(n, k), p, n, k, None, _mirror,
                               lambda theta: n * np.sin(theta / 2.0) ** 2)
    return _finish(dist, mode, seed)
