"""Eight-dimensional invariant-subspace model of the bipartite walk search.

The search step preserves the span of the uniform superpositions over the
eight arc classes (direction, tail marked or not, head marked or not).  On
that span it acts as a fixed 8x8 operator determined by two angles, one per
part, with ``cos(theta_j) = 1 - 2*k_j/n_j``.  The full spectral decomposition
is available in closed form, so every eigenpair here is written down
explicitly and only *checked* numerically (see :func:`qwcount.linalg.eigen_residual`);
nothing is diagonalized.

Basis order (tail class first, head class second; ``c`` marks a complement):

    K0,K1   K0,K1c   K0c,K1   K0c,K1c   K1,K0   K1,K0c   K1c,K0   K1c,K0c

The first four are direction-0 classes, the last four direction-1.  Empty
classes (``k_j`` equal to 0 or ``n_j``) have no arc-space vector; they are
recorded as absent and the model decouples them, so all closed forms remain
valid on the surviving coordinates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix
from .phase_estimation import TWO_PI, EigenphaseMixture
from .walk import BipartiteInstance, _arc_marks

__all__ = [
    "BASIS_LABELS",
    "EIGENPHASE_LABELS",
    "WalkAngles",
    "InvariantBasis",
    "EigenRecord",
    "SpectralDecomposition",
    "part_angle",
    "angles_from_instance",
    "invariant_basis",
    "build_reduced_evolution",
    "reduce_operator",
    "reduced_uniform_state",
    "spectral_decomposition",
    "eigenphase_table",
]

BASIS_LABELS = ("K0,K1", "K0,K1c", "K0c,K1", "K0c,K1c", "K1,K0", "K1,K0c", "K1c,K0", "K1c,K0c")

EIGENPHASE_LABELS = (
    "+mu", "-mu", "+(pi-mu)", "-(pi-mu)",
    "+sigma", "-sigma", "+(pi-sigma)", "-(pi-sigma)",
)


@dataclass(frozen=True)
class WalkAngles:
    """Part angles of the search operator; their half-sum and half-difference
    are derived.

    ``mu = (theta0 + theta1)/2`` lies in [0, π] and
    ``sigma = (theta0 - theta1)/2`` in [-π/2, π/2].
    """

    theta0: float
    theta1: float

    def __post_init__(self):
        for name, value in (("theta0", self.theta0), ("theta1", self.theta1)):
            if not 0.0 <= value <= math.pi:
                raise ValueError(f"{name} must lie in [0, pi], got {value}")

    @property
    def mu(self) -> float:
        return (self.theta0 + self.theta1) / 2.0

    @property
    def sigma(self) -> float:
        return (self.theta0 - self.theta1) / 2.0


def part_angle(k_part: int, n_part: int) -> float:
    """Angle encoding one part's marked count: ``arccos(1 - 2k/n)``."""
    return math.acos(1.0 - 2.0 * k_part / n_part)


def angles_from_instance(inst: BipartiteInstance) -> WalkAngles:
    """Angles encoding the marked counts, one :func:`part_angle` per part."""
    return WalkAngles(part_angle(inst.k0, inst.n0), part_angle(inst.k1, inst.n1))


@dataclass(frozen=True, eq=False)
class InvariantBasis:
    """Arc-space vectors of the eight invariant classes, absent ones as None."""

    labels: tuple[str, ...]
    vectors: tuple

    def present_indices(self) -> list[int]:
        return [i for i, v in enumerate(self.vectors) if v is not None]

    def matrix(self) -> np.ndarray:
        """Arc-dim x m matrix whose columns are the present basis vectors."""
        return np.column_stack([v for v in self.vectors if v is not None])


def invariant_basis(inst: BipartiteInstance) -> InvariantBasis:
    """Uniform superpositions over the eight (tail class, head class) arc sets.

    Each arc's class index is ``4·direction + 2·(tail unmarked) + (head
    unmarked)``, the :data:`BASIS_LABELS` order; a class vector is its
    indicator scaled by ``1/sqrt(class size)``.  The private core
    ``_invariant_basis`` takes the arc marks, so the verify suite, which has
    formed them for its oracles, forms them once.
    """
    return _invariant_basis(_arc_marks(inst))


def _invariant_basis(marks: tuple[np.ndarray, ...]) -> InvariantBasis:
    """:func:`invariant_basis` from the instance's ``_arc_marks``."""
    _, direction, tail, head = marks
    classes = 4 * direction + 2 * ~tail + ~head
    vectors = []
    for index, size in enumerate(np.bincount(classes, minlength=8)):
        if size == 0:
            vectors.append(None)
            continue
        vec = (classes == index) * (1.0 / math.sqrt(size))
        vec.setflags(write=False)
        vectors.append(vec)
    return InvariantBasis(BASIS_LABELS, tuple(vectors))


def _transfer_block(x: float) -> np.ndarray:
    """The 4x4 block mapping one direction sector to the other in one step."""
    c, s = math.cos(x), math.sin(x)
    return np.array([
        [c, -s, 0.0, 0.0],
        [0.0, 0.0, -c, s],
        [-s, -c, 0.0, 0.0],
        [0.0, 0.0, s, c],
    ])


def build_reduced_evolution(angles: WalkAngles) -> np.ndarray:
    """The search step on the invariant subspace: off-diagonal transfer blocks."""
    reduced = np.zeros((8, 8))
    reduced[:4, 4:] = _transfer_block(angles.theta0)
    reduced[4:, :4] = _transfer_block(angles.theta1)
    return reduced


def reduce_operator(u_full, basis: InvariantBasis) -> tuple[np.ndarray, float]:
    """Project an arc-space operator onto the invariant basis.

    Returns the Gram-projected matrix ``M[i, j] = ⟨b_i| U |b_j⟩`` over the
    present basis vectors together with the leakage, the largest norm of the
    component of any ``U |b_j⟩`` outside the basis span.  Leakage at rounding
    level certifies that the span really is invariant.

    Input is validated here; the private core ``_reduce_operator`` takes the
    basis matrix, and the verify suite calls it on the step it built.
    """
    um = as_matrix(u_full)
    b = basis.matrix()
    if um.shape[0] != um.shape[1] or um.shape[0] != b.shape[0]:
        raise ValueError(f"operator shape {um.shape} does not match basis dimension {b.shape[0]}")
    return _reduce_operator(um, b)


def _reduce_operator(um: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """:func:`reduce_operator` of a validated square ``um`` on the basis matrix ``b``."""
    image = um @ b
    projected = b.conj().T @ image
    leakage = float(np.linalg.norm(image - b @ projected, axis=0).max())
    return projected, leakage


def reduced_uniform_state(angles: WalkAngles) -> np.ndarray:
    """Coordinates of the uniform arc state in the invariant basis.

    The coefficient on a class is the square root of its arc count over the
    total arc count, which the projection tests confirm against the full
    space; absent classes get coefficient zero automatically.
    """
    s0, c0 = math.sin(angles.theta0 / 2.0), math.cos(angles.theta0 / 2.0)
    s1, c1 = math.sin(angles.theta1 / 2.0), math.cos(angles.theta1 / 2.0)
    coefficients = np.array(
        [s0 * s1, s0 * c1, c0 * s1, c0 * c1, s1 * s0, s1 * c0, c1 * s0, c1 * c0])
    return coefficients / math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class EigenRecord:
    """One closed-form eigenpair with its overlap against the uniform state."""

    label: str
    eigenvalue: complex
    eigenphase: float
    eigenvector: np.ndarray
    initial_overlap: float


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """The eight closed-form eigenpairs of the reduced search step."""

    records: tuple[EigenRecord, ...]

    def overlaps(self) -> np.ndarray:
        return np.array([r.initial_overlap for r in self.records])


_PATTERN_A = np.array((1, -1j, 1j, 1), dtype=np.complex128)
_PATTERN_B = np.array((1, -1j, -1j, -1), dtype=np.complex128)
_PATTERN_A_CONJ, _PATTERN_B_CONJ = np.conj(_PATTERN_A), np.conj(_PATTERN_B)


def _eigenvector(scalar: complex, first_pattern: np.ndarray, second_pattern: np.ndarray) -> np.ndarray:
    vec = np.concatenate((scalar * first_pattern, second_pattern)) / math.sqrt(8.0)
    vec.setflags(write=False)
    return vec


def spectral_decomposition(angles: WalkAngles) -> SpectralDecomposition:
    """Closed-form eigenpairs of :func:`build_reduced_evolution`.

    Eigenvalues are ``±e^{±i mu}`` and ``±e^{±i sigma}``; the paired
    eigenvectors share fixed direction-1 patterns and carry the conjugate
    angle on the direction-0 side.  Overlaps are computed numerically against
    :func:`reduced_uniform_state` rather than asserted.
    """
    mu, sigma = angles.mu, angles.sigma
    e_mu, e_sigma = cmath.exp(1j * mu), cmath.exp(1j * sigma)
    a, a_conj, b, b_conj = _PATTERN_A, _PATTERN_A_CONJ, _PATTERN_B, _PATTERN_B_CONJ
    entries = (
        ("mu+", e_mu, mu, _eigenvector(e_sigma, a, a)),
        ("mu-", -e_mu, math.pi + mu, _eigenvector(-e_sigma, a, a)),
        ("mu+*", e_mu.conjugate(), -mu, _eigenvector(e_sigma.conjugate(), a_conj, a_conj)),
        ("mu-*", -e_mu.conjugate(), math.pi - mu, _eigenvector(-e_sigma.conjugate(), a_conj, a_conj)),
        ("sigma+", e_sigma, sigma, _eigenvector(e_mu, b_conj, b)),
        ("sigma-", -e_sigma, math.pi + sigma, _eigenvector(-e_mu, b_conj, b)),
        ("sigma+*", e_sigma.conjugate(), -sigma, _eigenvector(e_mu.conjugate(), b, b_conj)),
        ("sigma-*", -e_sigma.conjugate(), math.pi - sigma, _eigenvector(-e_mu.conjugate(), b, b_conj)),
    )
    d_red = reduced_uniform_state(angles)
    records = tuple(
        EigenRecord(
            label=label,
            eigenvalue=value,
            eigenphase=phase % TWO_PI,
            eigenvector=vector,
            initial_overlap=float(abs(np.vdot(vector, d_red)) ** 2),
        )
        for label, value, phase, vector in entries
    )
    return SpectralDecomposition(records)


def eigenphase_table(angles: WalkAngles) -> EigenphaseMixture:
    """Eigenphase mixture seen by phase estimation started from the uniform state.

    Phases ``±mu`` carry weight ``cos²(sigma/2)/4`` each, ``±(π-mu)`` carry
    ``sin²(sigma/2)/4``, and symmetrically with ``mu`` and ``sigma`` swapped.
    Negative phases are reported mod 2π.  The weights agree with the
    eigenvector overlaps of :func:`spectral_decomposition` under the phase
    identity ``-e^{i mu} = e^{-i(π-mu)}``.  The phases are the orbits of
    ``mu`` and ``sigma``, one orbit when the two are equal (the part case).
    """
    mu, sigma = angles.mu, angles.sigma
    w_mu = math.cos(sigma / 2.0) ** 2 / 4.0
    w_pi_mu = math.sin(sigma / 2.0) ** 2 / 4.0
    w_sigma = math.cos(mu / 2.0) ** 2 / 4.0
    w_pi_sigma = math.sin(mu / 2.0) ** 2 / 4.0
    return EigenphaseMixture(
        [mu, sigma], [[w_mu, w_mu, w_pi_mu, w_pi_mu], [w_sigma, w_sigma, w_pi_sigma, w_pi_sigma]])
