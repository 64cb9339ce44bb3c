"""Independent reference for the values qwcount reports.

Everything here is rebuilt from the paper's closed forms with vectorized
numpy and shares no code with the package:

* the eight eigenphases ``±mu, ±(pi-mu), ±sigma, ±(pi-sigma)`` of the search
  step and their weights, from ``cos(theta_j) = 1 - 2 k_j / n_j``;
* the normalized phase-estimation kernel ``sin²(PΔ/2) / (P² sin²(Δ/2))``,
  evaluated in turns (fractions of 2π) so the argument reduction is exact;
* the fold by integer grid index, ``m -> min(m, P-m) -> min(., P/2 - .)``;
* ``k̃ = n sin²(θ̃)`` for the walk and ``n sin²(θ̃/2)`` for Grover search;
* the nominal radius ``2π sqrt(k(n-k))/P + π² n/P²``.

A mass the program reports is accepted when it lies inside the interval
spanned by the reference event masses at radius ``r ± TIE_TOL``, widened by
``MASS_TOL``.  The widening by ``TIE_TOL`` absorbs outcomes that sit on the
event boundary, where float folding and integer folding may decide
differently.  :mod:`mpmath` gives a high-precision value for a subset of
masses (``mass_err_max``); it is imported only when used.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
PART_THRESHOLD = 8.0 / math.pi**2
TOTAL_THRESHOLD = 0.65
# The program decides "passed" as mass >= threshold - PASS_SLACK.
PASS_SLACK = 1e-9
# Largest accepted absolute deviation of a reported mass from the reference.
MASS_TOL = 1e-10
# Largest accepted deviation of a reported angle or k̃ from the reference.
VALUE_TOL = 1e-9
# Boundary band of the bound event, in units of k.
TIE_TOL = 1e-9

EIGENPHASE_LABELS = ("+mu", "-mu", "+(pi-mu)", "-(pi-mu)",
                     "+sigma", "-sigma", "+(pi-sigma)", "-(pi-sigma)")


class Mismatch(Exception):
    """A program output disagrees with the reference."""


def part_angle(n: int, k: int) -> float:
    return math.acos(1.0 - 2.0 * k / n)


def eigen_mixture(theta0: float, theta1: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases (radians, unreduced) and weights seen from the uniform state."""
    mu, sigma = (theta0 + theta1) / 2.0, (theta0 - theta1) / 2.0
    phases = np.array([mu, -mu, math.pi - mu, -(math.pi - mu),
                       sigma, -sigma, math.pi - sigma, -(math.pi - sigma)])
    w_mu, w_pi_mu = math.cos(sigma / 2) ** 2 / 4, math.sin(sigma / 2) ** 2 / 4
    w_sigma, w_pi_sigma = math.cos(mu / 2) ** 2 / 4, math.sin(mu / 2) ** 2 / 4
    weights = np.array([w_mu, w_mu, w_pi_mu, w_pi_mu, w_sigma, w_sigma, w_pi_sigma, w_pi_sigma])
    return phases, weights


def part_mixture(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Mixture of the part-restricted walk: the other part's angle is 0."""
    return eigen_mixture(part_angle(n, k), 0.0)


def grover_mixture(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    theta = 2.0 * math.asin(math.sqrt(k / n))
    return np.array([theta, -theta]), np.array([0.5, 0.5])


def grid_masses(phases: np.ndarray, weights: np.ndarray, p: int) -> np.ndarray:
    """Outcome masses on the P-point grid, with the kernel evaluated in turns."""
    size = 2**p
    x = (np.asarray(phases) / TWO_PI % 1.0) * size          # exact scaling by 2^p
    d = x[:, None] - np.arange(size)[None, :]               # P·(t - m/P)
    f = d - np.rint(d)                                      # sin²(π d) has period 1
    e = d / size - np.rint(d / size)                        # sin²(π d / P) has period 1
    singular = e == 0.0
    safe = np.where(singular, 0.5, e)
    kernel = np.sin(math.pi * f) ** 2 / (size**2 * np.sin(math.pi * safe) ** 2)
    kernel = np.where(singular, 1.0, kernel)
    return np.asarray(weights) @ kernel


def walk_fold(p: int) -> np.ndarray:
    """Folded grid index ``b`` in ``0..P/4`` of every outcome ``m``."""
    size = 2**p
    m = np.arange(size)
    a = np.minimum(m, size - m)
    return np.minimum(a, size // 2 - a)


def walk_k(n: int, p: int, folded: np.ndarray) -> np.ndarray:
    return n * np.sin(TWO_PI * folded / 2**p) ** 2


def grover_fold(p: int) -> np.ndarray:
    size = 2**p
    m = np.arange(size)
    return np.minimum(m, size - m)


def grover_k(n: int, p: int, folded: np.ndarray) -> np.ndarray:
    return n * np.sin(math.pi * folded / 2**p) ** 2


def nominal_radius(n: int, k: int, p: int) -> float:
    size = 2**p
    return TWO_PI * math.sqrt(k * (n - k)) / size + math.pi**2 * n / size**2


class PartReference:
    """Reference pushforward of one single-part (or Grover) estimation run."""

    def __init__(self, n: int, k: int, p: int, grover: bool = False):
        self.k, self.size = k, 2**p
        phases, weights = (grover_mixture if grover else part_mixture)(n, k)
        self.mass = grid_masses(phases, weights, p)
        self.folded = grover_fold(p) if grover else walk_fold(p)
        self.k_est = (grover_k if grover else walk_k)(n, p, self.folded)
        self.theta_est = TWO_PI * self.folded / self.size
        self.radius = nominal_radius(n, k, p)
        self.k_by_fold = (grover_k if grover else walk_k)(n, p, np.arange(self.folded.max() + 1))
        self.mass_by_fold = np.bincount(self.folded, self.mass, minlength=self.k_by_fold.size)

    def bound_interval(self) -> tuple[float, float]:
        """Reference mass of ``|k̃ - k| <= r`` at ``r - TIE_TOL`` and ``r + TIE_TOL``."""
        dev = np.abs(self.k_by_fold - self.k)
        return (float(self.mass_by_fold[dev <= self.radius - TIE_TOL].sum()),
                float(self.mass_by_fold[dev <= self.radius + TIE_TOL].sum()))

    def inside(self) -> np.ndarray:
        """Outcome indices inside the nominal bound event."""
        return np.flatnonzero(np.abs(self.k_est - self.k) <= self.radius)


def _joint_deviation(ref0: PartReference, ref1: PartReference) -> np.ndarray:
    """``|k̃0 + k̃1 - (k0 + k1)|`` over pairs of folded indices."""
    return np.abs(ref0.k_by_fold[:, None] + ref1.k_by_fold[None, :] - (ref0.k + ref1.k))


def joint_interval(ref0: PartReference, ref1: PartReference) -> tuple[float, float]:
    """Reference joint mass of ``|k̃0 + k̃1 - (k0 + k1)| <= r0 + r1``."""
    dev = _joint_deviation(ref0, ref1)
    joint = ref0.mass_by_fold[:, None] * ref1.mass_by_fold[None, :]
    r = ref0.radius + ref1.radius
    return float(joint[dev <= r - TIE_TOL].sum()), float(joint[dev <= r + TIE_TOL].sum())


def joint_inside(ref0: PartReference, ref1: PartReference) -> tuple[np.ndarray, np.ndarray]:
    """Pairs of folded indices inside the joint bound event."""
    return np.nonzero(_joint_deviation(ref0, ref1) <= ref0.radius + ref1.radius)


def expect_close(what: str, got, want, tol: float) -> None:
    got_arr, want_arr = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got_arr.shape != want_arr.shape:
        raise Mismatch(f"{what}: shape {got_arr.shape}, expected {want_arr.shape}")
    if got_arr.size and not np.all(np.abs(got_arr - want_arr) <= tol):
        worst = int(np.argmax(np.abs(got_arr - want_arr)))
        raise Mismatch(f"{what}: {got_arr.flat[worst]!r} differs from reference "
                       f"{want_arr.flat[worst]!r} by more than {tol:g}")


def expect_equal(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def expect_mass(what: str, got: float, interval: tuple[float, float]) -> None:
    lo, hi = interval
    if not lo - MASS_TOL <= got <= hi + MASS_TOL:
        raise Mismatch(f"{what}: mass {got!r} outside reference [{lo!r}, {hi!r}] ± {MASS_TOL:g}")


def expect_flag(what: str, got, interval: tuple[float, float], threshold: float) -> None:
    """Check a pass flag; a reference mass at the threshold accepts either answer."""
    lo, hi = interval
    cut = threshold - PASS_SLACK
    if lo >= cut + MASS_TOL and got is not True:
        raise Mismatch(f"{what}: reported {got!r}, reference mass {lo!r} passes {threshold!r}")
    if hi < cut - MASS_TOL and got is not False:
        raise Mismatch(f"{what}: reported {got!r}, reference mass {hi!r} misses {threshold!r}")


# ---------------------------------------------------------------------------
# High-precision reference (mpmath), for mass_err_max.

MP_DIGITS = 40


class MpPart:
    """Masses of single outcomes at ``MP_DIGITS`` digits, for one mixture."""

    def __init__(self, mp, phases, weights, p: int):
        self.mp, self.size = mp, 2**p
        self.turns = [phase / (2 * mp.pi) for phase in phases]
        self.weights = weights

    @staticmethod
    def _context():
        import mpmath

        mp = mpmath.mp.clone()
        mp.dps = MP_DIGITS
        return mp

    @classmethod
    def for_instance(cls, n0: int, k0: int, n1: int, k1: int, p: int) -> "MpPart":
        mp = cls._context()
        theta0, theta1 = mp.acos(1 - mp.mpf(2 * k0) / n0), mp.acos(1 - mp.mpf(2 * k1) / n1)
        mu, sigma = (theta0 + theta1) / 2, (theta0 - theta1) / 2
        phases = [mu, -mu, mp.pi - mu, -(mp.pi - mu), sigma, -sigma, mp.pi - sigma, -(mp.pi - sigma)]
        w_mu, w_pi_mu = mp.cos(sigma / 2) ** 2 / 4, mp.sin(sigma / 2) ** 2 / 4
        w_sigma, w_pi_sigma = mp.cos(mu / 2) ** 2 / 4, mp.sin(mu / 2) ** 2 / 4
        weights = [w_mu, w_mu, w_pi_mu, w_pi_mu, w_sigma, w_sigma, w_pi_sigma, w_pi_sigma]
        return cls(mp, phases, weights, p)

    @classmethod
    def for_part(cls, n: int, k: int, p: int) -> "MpPart":
        # The part-restricted walk: the other part (one vertex, none marked) has angle 0.
        return cls.for_instance(n, k, 1, 0, p)

    @classmethod
    def for_grover(cls, n: int, k: int, p: int) -> "MpPart":
        mp = cls._context()
        theta = 2 * mp.asin(mp.sqrt(mp.mpf(k) / n))
        return cls(mp, [theta, -theta], [mp.mpf(1) / 2, mp.mpf(1) / 2], p)

    def mass(self, m: int):
        mp, size = self.mp, self.size
        total = mp.mpf(0)
        for t, w in zip(self.turns, self.weights):
            if w == 0:
                continue
            d = size * t - m
            den = mp.sin(mp.pi * d / size)
            if den == 0:
                total += w
            else:
                total += w * mp.sin(mp.pi * d) ** 2 / (size**2 * den**2)
        return total

    def masses(self, indices) -> dict:
        return {int(m): self.mass(int(m)) for m in indices}
