import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import qwcount
from qwcount import BASIS_LABELS, BipartiteInstance, build_coin, walk


@pytest.fixture
def fig2():
    """K_{4,3} with two marks in part 0 and one in part 1, the flagship instance."""
    return BipartiteInstance(4, 3, frozenset({1, 3}), frozenset({1}))


def package_env():
    """The environment with the tested package's directory first on PYTHONPATH,
    so that ``python -m qwcount`` in a subprocess runs that same package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(qwcount.__file__).resolve().parents[1]), env.get("PYTHONPATH")]))
    return env


def iter_count_instances(n_max, include_empty=True):
    """All canonical-marked instances with part sizes up to n_max."""
    for n0 in range(1, n_max + 1):
        for n1 in range(1, n_max + 1):
            for k0 in range(n0 + 1):
                for k1 in range(n1 + 1):
                    if not include_empty and k0 + k1 == 0:
                        continue
                    yield BipartiteInstance.from_counts(n0, n1, k0, k1)


def random_instances(count, n_max, seed):
    """Seeded random instances with arbitrary (non-canonical) marked sets."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n0 = int(rng.integers(1, n_max + 1))
        n1 = int(rng.integers(1, n_max + 1))
        marked0 = frozenset(int(v) for v in rng.choice(n0, size=int(rng.integers(0, n0 + 1)), replace=False))
        marked1 = frozenset(int(v) for v in rng.choice(n1, size=int(rng.integers(0, n1 + 1)), replace=False))
        out.append(BipartiteInstance(n0, n1, marked0, marked1))
    return out


def rotation(theta):
    """2x2 real rotation by theta, as a complex matrix."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


@dataclass(frozen=True)
class ArcIndex:
    """A directed arc: direction bit plus the edge endpoints (u in V0, v in V1).

    Reference for the arc layout of :mod:`qwcount.walk`, used by the tests only.
    """

    direction: int
    u: int
    v: int


def arc_to_flat(inst: BipartiteInstance, arc: ArcIndex) -> int:
    """Flat index of an arc under the ``direction*n0*n1 + u*n1 + v`` layout."""
    if arc.direction not in (0, 1):
        raise ValueError(f"direction must be 0 or 1, got {arc.direction}")
    if not (0 <= arc.u < inst.n0 and 0 <= arc.v < inst.n1):
        raise ValueError(f"arc endpoints ({arc.u}, {arc.v}) out of range for K_({inst.n0},{inst.n1})")
    return arc.direction * inst.num_edges + arc.u * inst.n1 + arc.v


def flat_to_arc(inst: BipartiteInstance, flat: int) -> ArcIndex:
    """Inverse of :func:`arc_to_flat`."""
    if not (0 <= flat < inst.dim):
        raise ValueError(f"flat index {flat} out of range for dimension {inst.dim}")
    direction, rest = divmod(flat, inst.num_edges)
    u, v = divmod(rest, inst.n1)
    return ArcIndex(direction, u, v)


# Float reference for the fold that qwcount.counting applies by grid index:
# the phase folding rules applied to float phases, elementwise.


def reflect_phase(omega):
    """First folding rule, elementwise: reflect phases in (π, 2π) onto [0, π]."""
    omega = np.asarray(omega, dtype=np.float64)
    return np.where((math.pi < omega) & (omega < 2 * math.pi), 2 * math.pi - omega, omega)


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


def draw_index(mass, rng: np.random.Generator) -> int:
    """One run drawn by mass with one ``rng.random()``: the first grid index
    whose cumulative mass exceeds the uniform, capped at the last index.

    Reference for the CLI's sampled ``count``, which places every trial's
    uniforms at once."""
    cumulative = np.cumsum(mass)
    return min(int(np.searchsorted(cumulative, rng.random(), side="right")), cumulative.size - 1)


def single_part_instance(inst: BipartiteInstance, part: int) -> BipartiteInstance:
    """The instance seen through the part-restricted oracle: other part unmarked.

    Reference for the part-restricted walk that :func:`qwcount.partial_count`
    evaluates from ``(n_part, k_part)`` alone.
    """
    if part not in (0, 1):
        raise ValueError(f"part must be 0 or 1, got {part}")
    if part == 0:
        return replace(inst, marked1=frozenset())
    return replace(inst, marked0=frozenset())


# Dense views of the structures qwcount.walk keeps the exact-integer
# operators in: the matrices the verify rows and the criteria are checked
# against.  They read each structure through the module at call time, so a
# test that patches a walk helper sees the patched structure here too.


def _check_part(part: int) -> None:
    if part not in (0, 1):
        raise ValueError(f"part must be 0 or 1, got {part}")


def build_shift(inst: BipartiteInstance) -> np.ndarray:
    """Flip-flop shift ``X ⊗ I``: row ``a`` holds its one 1 in column ``walk._shift_map(inst)[a]``."""
    shift = np.zeros((inst.dim, inst.dim))
    shift[np.arange(inst.dim), walk._shift_map(inst)] = 1.0
    return shift


def build_part_oracle(inst: BipartiteInstance, part: int) -> np.ndarray:
    """Oracle restricted to one part: ``diag`` of ``walk._oracle_signs`` in direction ``part``."""
    _check_part(part)
    return np.diag(walk._oracle_signs(walk._arc_marks(inst), part))


def build_ancilla_oracle(inst: BipartiteInstance, part: int) -> np.ndarray:
    """Ancilla-circuit realization ``CZ_part · F · CZ_part`` of the part oracle.

    Acts on the doubled space (arc ⊗ ancilla qubit, flat index ``2*arc + bit``)
    and is block-diagonal with the 2x2 blocks of ``walk._ancilla_blocks``,
    written into one zero-filled array through a ``(dim, 2, dim, 2)`` view,
    at arc = arc'.
    """
    _check_part(part)
    blocks = walk._ancilla_blocks(walk._arc_marks(inst), part)
    oracle = np.zeros((2 * inst.dim, 2 * inst.dim))
    arcs = np.arange(inst.dim)
    oracle.reshape(inst.dim, 2, inst.dim, 2)[arcs, :, arcs, :] = blocks
    return oracle


# Literal references for the arc-space builders that qwcount.walk computes
# without the dense work: the step as two full products.  The ancilla
# restriction, which the verify suite forms block by block, has two
# references: four strided views added pairwise, the suite's order, and a
# reduction over the strided ancilla axes.


def literal_evolution(inst: BipartiteInstance, oracle) -> np.ndarray:
    """One search step as written: ``shift @ coin @ oracle``."""
    return build_shift(inst) @ build_coin(inst) @ oracle


def restrict_to_plus_ancilla(m) -> np.ndarray:
    """``(⟨a|⊗⟨+|) M (|b⟩⊗|+⟩)`` for a doubled-space ``m`` (flat index
    ``2*arc + bit``): half the sum of the 2x2 ancilla block of arcs ``a, b``,
    from four strided views added pairwise, ``(00 + 01) + (10 + 11)``."""
    return 0.5 * ((m[0::2, 0::2] + m[0::2, 1::2]) + (m[1::2, 0::2] + m[1::2, 1::2]))


def literal_plus_restriction(m) -> np.ndarray:
    """``(⟨a|⊗⟨+|) M (|b⟩⊗|+⟩)`` as half the sum over both ancilla axes."""
    d = m.shape[0] // 2
    return 0.5 * m.reshape(d, 2, d, 2).sum(axis=(1, 3))


# Kronecker-product references for the builders that qwcount.walk and
# qwcount.reduced write entry by entry.


def kron_shift(inst: BipartiteInstance) -> np.ndarray:
    """The shift as ``X ⊗ I_{n0·n1}``."""
    return np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(inst.num_edges))


def kron_coin(inst: BipartiteInstance) -> np.ndarray:
    """The coin as ``(I_{n0} ⊗ G_{n1}) ⊕ (G_{n0} ⊗ I_{n1})``, ``G_d = (2/d)J − I``."""
    def grover(d):
        return (2.0 / d) * np.ones((d, d)) - np.eye(d)

    half = inst.num_edges
    coin = np.zeros((inst.dim, inst.dim))
    coin[:half, :half] = np.kron(np.eye(inst.n0), grover(inst.n1))
    coin[half:, half:] = np.kron(grover(inst.n0), np.eye(inst.n1))
    return coin


def kron_invariant_basis(inst: BipartiteInstance) -> list:
    """Class vectors as ``kron(tail mask, head mask)`` scaled by ``1/sqrt(size)``, absent ones None."""
    marked0 = np.isin(np.arange(inst.n0), list(inst.marked0))
    marked1 = np.isin(np.arange(inst.n1), list(inst.marked1))
    masks = {"K0": marked0, "K0c": ~marked0, "K1": marked1, "K1c": ~marked1}
    vectors = []
    for label in BASIS_LABELS:
        tail, head = label.split(",")
        tails, heads = masks[tail], masks[head]
        size = int(tails.sum()) * int(heads.sum())
        if size == 0:
            vectors.append(None)
            continue
        vec = np.zeros(inst.dim)
        if tail.startswith("K0"):
            vec[:inst.num_edges] = np.kron(tails, heads)
        else:
            vec[inst.num_edges:] = np.kron(heads, tails)
        vec *= 1.0 / math.sqrt(size)
        vectors.append(vec)
    return vectors


# Float reference for the kernel that qwcount.phase_estimation evaluates in
# turns: the radian formula, with a tolerance around the removable
# singularity because the rounded grid phase never quite meets the eigenphase.

RADIAN_SINGULARITY_TOL = 1e-13


def radian_kernel(theta, omega, grid_size: int):
    """``sin²(PΔ/2) / (P² sin²(Δ/2))`` at ``Δ = theta − omega`` in radians, elementwise."""
    delta = np.subtract(theta, omega) % (2 * math.pi)
    singular = np.minimum(delta, 2 * math.pi - delta) < RADIAN_SINGULARITY_TOL
    safe = np.where(singular, 1.0, delta)
    numerator = np.square(np.sin(grid_size * safe / 2.0))
    values = numerator / (grid_size**2 * np.square(np.sin(safe / 2.0)))
    return np.where(singular, 1.0, np.minimum(values, 1.0))[()]


def radian_masses(phases, weights, p: int) -> np.ndarray:
    """Grid masses of a mixture, one radian kernel per weighted phase."""
    size = 2**p
    omegas = 2 * math.pi * np.arange(size) / size
    mass = np.zeros(size)
    for phase, weight in zip(phases, weights):
        if weight > 0.0:
            mass += weight * radian_kernel(phase, omegas, size)
    return mass
