"""Marked-vertex counting via phase estimation, with exact pushforward mode.

The single-shot algorithms estimate an eigenphase, fold it into a canonical
quadrant, and convert it to a count through ``k = n sin²``.  Beyond the
single-shot (``sampled``) mode, every routine offers an ``exact`` mode that
pushes the whole grid distribution through the same pipeline, so the error
bounds and success probabilities become checkable statements about exact
probability masses instead of statistical claims.

A pushforward is held as read-only float64 arrays indexed by grid index
(``omega``, ``theta_est``, ``k_est``, ``mass``); a sampled run pushes the
distribution forward once and draws grid indices from it.

Counting a single part uses the part-restricted oracle, which is constructed
internally from the instance; confinement of the marks to that part is
guaranteed rather than trusted.  Counts are reported as real numbers (the
error bounds apply before any rounding); a round-half-to-even integer is
attached for convenience.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .phase_estimation import TWO_PI, EigenphaseMixture, exact_distribution
from .reduced import angles_from_instance, eigenphase_table
from .walk import BipartiteInstance, _check_part

__all__ = [
    "fold_phase",
    "reflect_phase",
    "estimate_k",
    "partial_count_error_bound",
    "adjusted_partial_count_error_bound",
    "full_count_error_bound",
    "adjusted_full_count_error_bound",
    "CountDistribution",
    "FullCountDistribution",
    "CountEstimate",
    "FullCountEstimate",
    "single_part_instance",
    "grover_mixture",
    "partial_count",
    "full_count",
    "grover_count",
]


def reflect_phase(omega):
    """First folding rule, elementwise: reflect phases in (π, 2π) onto [0, π]."""
    omega = np.asarray(omega, dtype=np.float64)
    return np.where((math.pi < omega) & (omega < TWO_PI), TWO_PI - omega, omega)


def fold_phase(omega):
    """Fold phases in [0, 2π) to their canonical representatives in [0, π/2], elementwise.

    Applies ``x -> 2π - x`` when π < x < 2π, then ``x -> π - x`` when
    x > π/2.  Both rules are strict, so π/2 is a fixed point and π maps to 0
    through the second rule only.
    """
    x = reflect_phase(omega)
    return np.where(x > math.pi / 2.0, math.pi - x, x)


def estimate_k(theta_half, n_part: int):
    """Count estimate from folded half-angles, elementwise: ``n_part * sin²(theta_half)``."""
    return n_part * np.sin(theta_half) ** 2


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

    def mass_within(self, radius: float, center: float | None = None) -> float:
        """Exact probability that the estimate lies within ``radius`` of ``center``."""
        c = float(self.k_true) if center is None else center
        return float(self.mass[np.abs(self.k_est - c) <= radius].sum())

    def draw(self, rng: np.random.Generator) -> CountEstimate:
        """One sampled run: a grid index drawn by mass with one ``rng.random()``.

        The estimate carries no seed; callers that own the seed attach it.
        """
        cumulative = np.cumsum(self.mass)
        index = min(int(np.searchsorted(cumulative, rng.random(), side="right")), self.mass.size - 1)
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


def _end_of_run(k0: np.ndarray, k1_sorted: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                holds) -> np.ndarray:
    """Per part-0 index, ``lo`` plus the number of ``j`` in ``[lo, hi)`` where ``holds``.

    ``holds(k0 + k1_sorted[j])`` must be true and then false as ``j`` grows,
    so the count makes this the first index in the band where it fails.
    """
    edge = lo.copy()
    last = k1_sorted.size - 1
    for offset in range(int((hi - lo).max(initial=0))):
        j = lo + offset
        edge += (j < hi) & holds(k0 + k1_sorted[np.minimum(j, last)])
    return edge


@dataclass(frozen=True)
class FullCountDistribution:
    """Product distribution of the two independent single-part runs."""

    p: int
    k_true: int
    bound: float
    oracle_queries: int
    part0: CountDistribution
    part1: CountDistribution

    def mass_within(self, radius: float, center: float | None = None) -> float:
        """Exact joint probability that ``k̃0 + k̃1`` lies within ``radius`` of ``center``.

        ``O(P log P)``: part 1 is sorted by ``k̃1`` with prefix sums of its
        mass, so the pairs with a given ``k̃0`` inside the event form one run
        of sorted positions.  Two ``searchsorted`` lookups per ``k̃0`` find
        that run up to a band of a few rounding errors at each end, and pairs
        in a band are decided by the exact predicate
        ``abs((k̃0 + k̃1) - center) <= radius``, so ties fall as in the
        literal sum over all ``P²`` pairs.
        """
        c = float(self.k_true) if center is None else center
        k0, m0 = self.part0.k_est, self.part0.mass
        order = np.argsort(self.part1.k_est, kind="stable")
        k1 = self.part1.k_est[order]
        prefix = np.concatenate(([0.0], np.cumsum(self.part1.mass[order])))
        # Rounding bound for the thresholds below and for the predicate:
        # a few ulps of the largest magnitude involved, with room to spare.
        scale = abs(c) + float(k0.max()) + float(k1[-1])
        scale += abs(radius) if math.isfinite(radius) else 0.0
        tol = 32.0 * np.finfo(np.float64).eps * scale
        low, high = (c - radius) - k0, (c + radius) - k0
        lo = _end_of_run(k0, k1, np.searchsorted(k1, low - tol, "left"),
                         np.searchsorted(k1, low + tol, "right"), lambda t: t - c < -radius)
        hi = _end_of_run(k0, k1, np.searchsorted(k1, high - tol, "left"),
                         np.searchsorted(k1, high + tol, "right"), lambda t: t - c <= radius)
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


def single_part_instance(inst: BipartiteInstance, part: int) -> BipartiteInstance:
    """The instance seen through the part-restricted oracle: other part unmarked."""
    _check_part(part)
    if part == 0:
        return replace(inst, marked1=frozenset())
    return replace(inst, marked0=frozenset())


def _check_mode(mode: str, seed) -> None:
    if mode not in ("exact", "sampled"):
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    if mode == "sampled" and seed is None:
        raise ValueError("sampled mode requires an explicit seed")


def _check_p(p: int) -> None:
    if p < 1:
        raise ValueError(f"register size must be at least 1 qubit, got {p}")


def _finish(dist, mode: str, seed: int | None):
    """The exact distribution, or one run drawn from it with ``default_rng(seed)``."""
    if mode == "exact":
        return dist
    return replace(dist.draw(np.random.default_rng(seed)), seed=seed)


def _pushforward(mixture: EigenphaseMixture, p: int, fold, to_k) -> dict[str, np.ndarray]:
    dist = exact_distribution(mixture, p)
    omega = dist.omegas()
    theta_est = fold(omega)
    return {"omega": omega, "theta_est": theta_est, "k_est": to_k(theta_est), "mass": dist.mass}


def partial_count(p: int, inst: BipartiteInstance, part: int, mode: str = "exact",
                  seed: int | None = None):
    """Count the marked vertices of one part.

    Runs phase estimation on the walk whose oracle marks only ``part`` (the
    eigenphase mixture of that walk is known in closed form), folds each
    outcome to [0, π/2] and applies ``k = n_part sin²``.  Exact mode returns
    the full :class:`CountDistribution`; sampled mode draws one outcome and
    returns a :class:`CountEstimate`.  The run costs ``P - 1`` oracle queries.
    """
    _check_p(p)
    _check_mode(mode, seed)
    effective = single_part_instance(inst, part)
    n_part = inst.n0 if part == 0 else inst.n1
    k_part = effective.num_marked
    mixture = eigenphase_table(angles_from_instance(effective))
    dist = CountDistribution(
        p=p,
        n_target=n_part,
        k_true=k_part,
        part=part,
        bound=partial_count_error_bound(k_part, n_part, 2**p),
        oracle_queries=2**p - 1,
        **_pushforward(mixture, p, fold_phase, lambda t: estimate_k(t, n_part)),
    )
    return _finish(dist, mode, seed)


def full_count(p: int, inst: BipartiteInstance, mode: str = "exact",
               seed: int | None = None):
    """Count all marked vertices by running the single-part count on each part.

    The two runs use fresh registers and are statistically independent, so the
    exact joint distribution is the product measure over outcome pairs.  Total
    cost is ``2P - 2`` oracle queries.
    """
    _check_p(p)
    _check_mode(mode, seed)
    joint = FullCountDistribution(
        p=p,
        k_true=inst.num_marked,
        bound=full_count_error_bound(inst.k0, inst.n0, inst.k1, inst.n1, 2**p),
        oracle_queries=2 * (2**p - 1),
        part0=partial_count(p, inst, 0, "exact"),
        part1=partial_count(p, inst, 1, "exact"),
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
    _check_p(p)
    _check_mode(mode, seed)
    mixture = grover_mixture(n, k)
    dist = CountDistribution(
        p=p,
        n_target=n,
        k_true=k,
        part=None,
        bound=partial_count_error_bound(k, n, 2**p),
        oracle_queries=2**p - 1,
        **_pushforward(mixture, p, reflect_phase, lambda t: estimate_k(t / 2.0, n)),
    )
    return _finish(dist, mode, seed)
