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
from .walk import BipartiteInstance

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
    "transfer_block",
    "build_reduced_evolution",
    "reduce_operator",
    "reduced_uniform_state",
    "spectral_decomposition",
    "eigenphase_table",
]

_LABEL_PAIRS = (
    ("K0", "K1"), ("K0", "K1c"), ("K0c", "K1"), ("K0c", "K1c"),
    ("K1", "K0"), ("K1", "K0c"), ("K1c", "K0"), ("K1c", "K0c"),
)

BASIS_LABELS = tuple(f"{tail},{head}" for tail, head in _LABEL_PAIRS)

EIGENPHASE_LABELS = (
    "+mu", "-mu", "+(pi-mu)", "-(pi-mu)",
    "+sigma", "-sigma", "+(pi-sigma)", "-(pi-sigma)",
)


@dataclass(frozen=True)
class WalkAngles:
    """Part angles of the search operator plus their half-sum and half-difference.

    ``mu = (theta0 + theta1)/2`` lies in [0, π] and
    ``sigma = (theta0 - theta1)/2`` in [-π/2, π/2].
    """

    theta0: float
    theta1: float
    mu: float
    sigma: float

    def __post_init__(self):
        for name, value in (("theta0", self.theta0), ("theta1", self.theta1)):
            if not 0.0 <= value <= math.pi:
                raise ValueError(f"{name} must lie in [0, pi], got {value}")

    @classmethod
    def from_thetas(cls, theta0: float, theta1: float) -> "WalkAngles":
        return cls(theta0, theta1, (theta0 + theta1) / 2.0, (theta0 - theta1) / 2.0)


def part_angle(k_part: int, n_part: int) -> float:
    """Angle encoding one part's marked count: ``arccos(1 - 2k/n)``."""
    return math.acos(1.0 - 2.0 * k_part / n_part)


def angles_from_instance(inst: BipartiteInstance) -> WalkAngles:
    """Angles encoding the marked counts, one :func:`part_angle` per part."""
    return WalkAngles.from_thetas(part_angle(inst.k0, inst.n0), part_angle(inst.k1, inst.n1))


@dataclass(frozen=True)
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

    A direction-0 arc ``(u, v)`` sits at ``u*n1 + v`` in the first half, so
    its class vector is ``kron(tail mask on V0, head mask on V1)`` there; a
    direction-1 arc has its tail in V1 and sits at the same offset in the
    second half, so the factors swap.
    """
    marked0 = np.isin(np.arange(inst.n0), list(inst.marked0))
    marked1 = np.isin(np.arange(inst.n1), list(inst.marked1))
    masks = {"K0": marked0, "K0c": ~marked0, "K1": marked1, "K1c": ~marked1}
    half = inst.num_edges
    vectors = []
    for tail, head in _LABEL_PAIRS:
        tails, heads = masks[tail], masks[head]
        size = int(tails.sum()) * int(heads.sum())
        if size == 0:
            vectors.append(None)
            continue
        vec = np.zeros(inst.dim, dtype=np.complex128)
        if tail.startswith("K0"):
            vec[:half] = np.kron(tails, heads)
        else:
            vec[half:] = np.kron(heads, tails)
        vec *= 1.0 / math.sqrt(size)
        vec.setflags(write=False)
        vectors.append(vec)
    return InvariantBasis(BASIS_LABELS, tuple(vectors))


def transfer_block(x: float) -> np.ndarray:
    """The 4x4 block mapping one direction sector to the other in one step."""
    c, s = math.cos(x), math.sin(x)
    return np.array(
        [
            [c, -s, 0.0, 0.0],
            [0.0, 0.0, -c, s],
            [-s, -c, 0.0, 0.0],
            [0.0, 0.0, s, c],
        ],
        dtype=np.complex128,
    )


def build_reduced_evolution(angles: WalkAngles) -> np.ndarray:
    """The search step on the invariant subspace: off-diagonal transfer blocks."""
    reduced = np.zeros((8, 8), dtype=np.complex128)
    reduced[:4, 4:] = transfer_block(angles.theta0)
    reduced[4:, :4] = transfer_block(angles.theta1)
    return reduced


def reduce_operator(u_full, basis: InvariantBasis) -> tuple[np.ndarray, float]:
    """Project an arc-space operator onto the invariant basis.

    Returns the Gram-projected matrix ``M[i, j] = ⟨b_i| U |b_j⟩`` over the
    present basis vectors together with the leakage, the largest norm of the
    component of any ``U |b_j⟩`` outside the basis span.  Leakage at rounding
    level certifies that the span really is invariant.
    """
    um = as_matrix(u_full)
    b = basis.matrix()
    if um.shape[0] != um.shape[1] or um.shape[0] != b.shape[0]:
        raise ValueError(f"operator shape {um.shape} does not match basis dimension {b.shape[0]}")
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
        [s0 * s1, s0 * c1, c0 * s1, c0 * c1, s1 * s0, s1 * c0, c1 * s0, c1 * c0],
        dtype=np.complex128,
    )
    return coefficients / math.sqrt(2.0)


@dataclass(frozen=True)
class EigenRecord:
    """One closed-form eigenpair with its overlap against the uniform state."""

    label: str
    eigenvalue: complex
    eigenphase: float
    eigenvector: np.ndarray
    initial_overlap: float


@dataclass(frozen=True)
class SpectralDecomposition:
    """The eight closed-form eigenpairs of the reduced search step."""

    records: tuple[EigenRecord, ...]

    def overlaps(self) -> np.ndarray:
        return np.array([r.initial_overlap for r in self.records])


def _eigenvector(scalar: complex, first_pattern, second_pattern) -> np.ndarray:
    first = scalar * np.array(first_pattern, dtype=np.complex128)
    second = np.array(second_pattern, dtype=np.complex128)
    vec = np.concatenate([first, second]) / math.sqrt(8.0)
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
    j = 1j
    pattern_a = (1, -j, j, 1)
    pattern_b = (1, -j, -j, -1)

    def conj(pattern):
        return tuple(np.conj(pattern))

    entries = (
        ("mu+", e_mu, mu, _eigenvector(e_sigma, pattern_a, pattern_a)),
        ("mu-", -e_mu, math.pi + mu, _eigenvector(-e_sigma, pattern_a, pattern_a)),
        ("mu+*", e_mu.conjugate(), -mu, _eigenvector(e_sigma.conjugate(), conj(pattern_a), conj(pattern_a))),
        ("mu-*", -e_mu.conjugate(), math.pi - mu, _eigenvector(-e_sigma.conjugate(), conj(pattern_a), conj(pattern_a))),
        ("sigma+", e_sigma, sigma, _eigenvector(e_mu, conj(pattern_b), pattern_b)),
        ("sigma-", -e_sigma, math.pi + sigma, _eigenvector(-e_mu, conj(pattern_b), pattern_b)),
        ("sigma+*", e_sigma.conjugate(), -sigma, _eigenvector(e_mu.conjugate(), pattern_b, conj(pattern_b))),
        ("sigma-*", -e_sigma.conjugate(), math.pi - sigma, _eigenvector(-e_mu.conjugate(), pattern_b, conj(pattern_b))),
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
    identity ``-e^{i mu} = e^{-i(π-mu)}``.
    """
    mu, sigma = angles.mu, angles.sigma
    w_mu = math.cos(sigma / 2.0) ** 2 / 4.0
    w_pi_mu = math.sin(sigma / 2.0) ** 2 / 4.0
    w_sigma = math.cos(mu / 2.0) ** 2 / 4.0
    w_pi_sigma = math.sin(mu / 2.0) ** 2 / 4.0
    phases = [
        mu, -mu, math.pi - mu, -(math.pi - mu),
        sigma, -sigma, math.pi - sigma, -(math.pi - sigma),
    ]
    weights = [w_mu, w_mu, w_pi_mu, w_pi_mu, w_sigma, w_sigma, w_pi_sigma, w_pi_sigma]
    return EigenphaseMixture(np.array(phases), np.array(weights))
