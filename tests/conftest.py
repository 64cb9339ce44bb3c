import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from qwcount import BipartiteInstance


@pytest.fixture
def fig2():
    """K_{4,3} with two marks in part 0 and one in part 1, the flagship instance."""
    return BipartiteInstance(4, 3, frozenset({1, 3}), frozenset({1}))


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
