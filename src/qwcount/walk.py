"""Arc-space operators for the coined walk on a complete bipartite graph.

The walker lives on the directed arcs of K_{n0,n1}.  A basis state is
``(direction, u, v)`` where ``u`` indexes the V0 endpoint and ``v`` the V1
endpoint of an edge; direction 0 points from V0 to V1 and direction 1 points
back.  The flat index is ``direction*n0*n1 + u*n1 + v``, which makes the
shift a clean block swap and keeps the direction-0 coin blocks contiguous.

One search step applies the marked-vertex oracle, then the Grover coin at
every tail vertex, then the arc-reversing shift.  Every entry of these
operators is real (0, ±1 or ``2/d - δ``), so every builder returns a float64
array and the step is a real orthogonal matrix.

The exact-integer operators are kept in one form each, their structure: the
shift is an index map (:func:`_shift_map`), the oracle and the part oracles
are ±1 sign vectors (:func:`_oracle_signs`), and the ancilla oracle is one
2x2 block per arc (:func:`_ancilla_blocks`), all read from the arc marks of
:func:`_arc_marks`, which carry the shift map.  The verify suite checks them
in that form.  Only the coin and the oracle have dense builders: the step and
the CLI's ``--corrupt-oracle`` use them.  :func:`_step_from_coin` is the one
formula for the step, shifting by the marks it is given, and
:func:`_override_signs` the one reader of an oracle override.  Every builder
reads :attr:`BipartiteInstance.dim`, the one size guard, before it allocates.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError
from .linalg import as_matrix

__all__ = [
    "MAX_FULL_SPACE_EDGES",
    "BipartiteInstance",
    "build_coin",
    "build_oracle",
    "build_evolution",
    "uniform_state",
]

# Largest instance whose arc space (two arcs per edge) any builder allocates.
MAX_FULL_SPACE_EDGES = 64


@dataclass(frozen=True)
class BipartiteInstance:
    """A complete bipartite graph K_{n0,n1} with marked vertex sets.

    Vertices of part ``j`` are the integers ``0 .. nj-1``.  All derived
    quantities (angles, spectra, count distributions) depend only on the
    set sizes, which the test suite checks by relabeling.
    """

    n0: int
    n1: int
    marked0: frozenset[int] = field(default_factory=frozenset)
    marked1: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        try:
            object.__setattr__(self, "n0", operator.index(self.n0))
            object.__setattr__(self, "n1", operator.index(self.n1))
        except TypeError as exc:
            raise ValueError(f"part sizes must be integers: {exc}")
        try:
            object.__setattr__(self, "marked0", frozenset(operator.index(x) for x in self.marked0))
            object.__setattr__(self, "marked1", frozenset(operator.index(x) for x in self.marked1))
        except TypeError as exc:
            raise ValueError(f"marked vertices must be integers: {exc}")
        if self.n0 < 1 or self.n1 < 1:
            raise ValueError(f"part sizes must be at least 1, got ({self.n0}, {self.n1})")
        for name, marked, size in (("marked0", self.marked0, self.n0),
                                   ("marked1", self.marked1, self.n1)):
            if not all(0 <= x < size for x in marked):
                raise ValueError(f"{name} must be a subset of range({size}), got {sorted(marked)}")

    @classmethod
    def from_counts(cls, n0: int, n1: int, k0: int, k1: int) -> "BipartiteInstance":
        """Instance with the canonical marked sets ``{0..k0-1}`` and ``{0..k1-1}``,
        whose counts are checked before either set is built."""
        try:
            n0, n1, k0, k1 = map(operator.index, (n0, n1, k0, k1))
        except TypeError as exc:
            raise ValueError(f"part sizes and marked counts must be integers: {exc}")
        if not (0 <= k0 <= max(n0, 0) and 0 <= k1 <= max(n1, 0)):  # n < 1: __post_init__ says so
            raise ValueError(f"marked counts ({k0}, {k1}) out of range for K_({n0},{n1})")
        return cls(n0, n1, frozenset(range(k0)), frozenset(range(k1)))

    @property
    def k0(self) -> int:
        return len(self.marked0)

    @property
    def k1(self) -> int:
        return len(self.marked1)

    @property
    def num_vertices(self) -> int:
        return self.n0 + self.n1

    @property
    def num_marked(self) -> int:
        return self.k0 + self.k1

    @property
    def num_edges(self) -> int:
        return self.n0 * self.n1

    @property
    def dim(self) -> int:
        """Dimension of the arc space (two arcs per edge): the one size guard."""
        if self.num_edges > MAX_FULL_SPACE_EDGES:
            raise ResourceLimitError(
                f"arc space limited to {MAX_FULL_SPACE_EDGES} edges, got {self.num_edges}")
        return 2 * self.num_edges


def _shift_map(inst: BipartiteInstance) -> np.ndarray:
    """The flip-flop shift as an index map: ``map[a] = a ± n0·n1``, the reverse of arc ``a``.

    Row ``a`` of the shift holds its one 1 in column ``map[a]``, so the
    shift applied to a matrix gathers its rows, ``shift @ m == m[map]``.
    """
    return np.arange(inst.num_edges, inst.num_edges + inst.dim) % inst.dim


def _grover_block(d: int) -> np.ndarray:
    """Reflection about the uniform state on d outgoing arcs: (2/d)J - I."""
    return (2.0 / d) * np.ones((d, d)) - np.eye(d)


def build_coin(inst: BipartiteInstance) -> np.ndarray:
    """Grover coin: one reflection block per tail vertex.

    Direction-0 arcs with tail ``u`` are contiguous in the flat layout, so
    that half is ``I_{n0} ⊗ G_{n1}``.  Direction-1 arcs with tail ``v`` sit
    at stride ``n1``, which ``G_{n0} ⊗ I_{n1}`` matches.  A degree-1 vertex
    gets the 1x1 identity block.  The blocks are written through a
    ``(n0, n1, n0, n1)`` view of each half, at ``u = u'`` and ``v = v'``.
    """
    n0, n1, half = inst.n0, inst.n1, inst.num_edges
    coin = np.zeros((inst.dim, inst.dim))
    u, v = np.arange(n0), np.arange(n1)
    coin[:half, :half].reshape(n0, n1, n0, n1)[u, :, u, :] = _grover_block(n1)
    coin[half:, half:].reshape(n0, n1, n0, n1)[:, v, :, v] = _grover_block(n0)
    return coin


def _arc_marks(inst: BipartiteInstance) -> tuple[np.ndarray, ...]:
    """Per arc: its reverse (:func:`_shift_map`), its direction bit, whether its
    tail is marked, whether its head is (the tail of its reverse).  The tail of
    arc ``(u, v)`` is ``u`` in direction 0 and ``v`` in direction 1."""
    reverse = _shift_map(inst)
    tail = np.zeros(inst.dim, dtype=bool).reshape(2, inst.n0, inst.n1)
    tail[0, list(inst.marked0), :] = True
    tail[1, :, list(inst.marked1)] = True
    tail = tail.ravel()
    return reverse, np.arange(inst.dim) >= inst.num_edges, tail, tail[reverse]


def _oracle_signs(marks: tuple[np.ndarray, ...], part: int | None = None) -> np.ndarray:
    """The oracle's ±1 diagonal from :func:`_arc_marks`: −1 on each arc whose
    tail is marked, in direction ``part`` only unless it is None."""
    _, direction, tail, _ = marks
    flipped = tail if part is None else tail & (direction == part)
    return np.where(flipped, -1.0, 1.0)


def build_oracle(inst: BipartiteInstance) -> np.ndarray:
    """Diagonal ±1 oracle: flips the amplitude of arcs whose tail is marked."""
    return np.diag(_oracle_signs(_arc_marks(inst)))


def _ancilla_blocks(marks: tuple[np.ndarray, ...], part: int) -> np.ndarray:
    """The 2x2 ancilla block of each arc from :func:`_arc_marks`, shape ``(dim, 2, 2)``:
    the identity if the arc's tail is unmarked, ``X`` if it is marked, and
    ``−X`` if it is marked and the arc's direction is ``part``: the circuit
    ``CZ_part · F · CZ_part``, which acts as the part oracle on an ancilla in
    ``|+⟩`` and leaves it there.  Zeros are ``+0.0``."""
    _, direction, marked, _ = marks
    blocks = np.zeros((len(marked), 2, 2))
    blocks[~marked, 0, 0] = blocks[~marked, 1, 1] = 1.0
    blocks[marked, 0, 1] = blocks[marked, 1, 0] = np.where(direction[marked] == part, -1.0, 1.0)
    return blocks


def _override_signs(inst: BipartiteInstance, oracle) -> np.ndarray:
    """The signs of an ``oracle`` override: the diagonal of a real diagonal arc-space matrix."""
    om = as_matrix(oracle)
    if om.shape != (inst.dim, inst.dim):
        raise ValueError(f"oracle shape {om.shape} does not match arc dimension {inst.dim}")
    signs = np.diagonal(om)
    if om.dtype.kind == "c" or np.count_nonzero(om) != np.count_nonzero(signs):
        raise ValueError("oracle override must be a real diagonal matrix")
    return signs


def _step_from_coin(inst: BipartiteInstance, coin: np.ndarray, oracle,
                    marks: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's signs, and :func:`build_evolution`'s step formed from
    ``coin`` and ``marks``, the instance's :func:`_arc_marks`: the shift map
    and, without an override, the oracle's signs are read from them."""
    signs = _oracle_signs(marks) if oracle is None else _override_signs(inst, oracle)
    return signs, coin[marks[0]] * signs + 0.0


def build_evolution(inst: BipartiteInstance, oracle=None) -> np.ndarray:
    """One search step ``shift @ coin @ oracle``: the oracle acts first, then coin, then shift.

    ``oracle`` defaults to :func:`build_oracle`; an override must be a real
    diagonal matrix (:func:`_override_signs`).  The step is the coin with its
    rows gathered by :func:`_shift_map` and its columns scaled by the signs,
    exactly; adding ``0.0`` makes a scaled ``-0.0`` the product's ``+0.0``.
    """
    return _step_from_coin(inst, build_coin(inst), oracle, _arc_marks(inst))[1]


def uniform_state(inst: BipartiteInstance) -> np.ndarray:
    """Unit-norm uniform superposition over all arcs."""
    return np.full(inst.dim, 1.0 / np.sqrt(inst.dim))
