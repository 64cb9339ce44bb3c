"""Exact outcome statistics of textbook phase estimation on a p-qubit register.

Two independent engines compute the same distribution over the phase grid
``Ω_P = {2πm/P : 0 ≤ m < P}`` with ``P = 2^p``:

* :func:`exact_distribution` mixes the squared Fourier-vector overlap kernel
  ``sin²(PΔ/2) / (P² sin²(Δ/2))`` over weighted eigenphase orbits.  (A
  common textbook rendering of this kernel drops the factor 1/2 inside the
  sines; that variant does not sum to one over the grid.  The normalized form
  used here is what the Fourier vectors ``|F_P(ω)⟩ = P^{-1/2} Σ_j e^{iωj}|j⟩``
  actually give, and the circuit engine confirms it.)  It is evaluated in
  turns, ``sin²(πx) / (P² sin²(πx/P))`` at ``x = P·t − m`` for a phase of
  ``t`` turns, so scaling by ``P = 2^p`` is exact, the numerator is one
  scalar per phase and the singular point is exactly ``x/P`` integral.  One
  grid kernel serves a whole eigenphase orbit ``φ, −φ, π − φ, −(π − φ)``:
  on the grid its members are index maps of the kernel of ``φ``.
* :func:`circuit_distribution` literally simulates the register circuit:
  uniform first register, controlled powers ``u^{2^e}`` obtained by repeated
  matrix squaring, inverse Fourier transform, first-register marginal.  It
  never consults eigenvalues, so agreement between the two engines is a real
  cross-check.

Sampling is a pure function of (distribution, seed, n) backed by NumPy's
PCG64 generator; there is no hidden global RNG state.  Every sampler of the
package places its uniforms on the grid with :func:`grid_indices`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError
from .linalg import as_matrix, as_vector, unitarity_defect

__all__ = [
    "TWO_PI",
    "GOOD_ESTIMATE_PROBABILITY",
    "MAX_CIRCUIT_QUBITS",
    "MAX_ANALYTIC_QUBITS",
    "EigenphaseMixture",
    "PhaseDistribution",
    "fourier_kernel",
    "exact_distribution",
    "circuit_distribution",
    "grid_indices",
    "sample",
    "total_variation",
    "good_estimate_mass",
]

TWO_PI = 2.0 * math.pi

# Worst-case probability that phase estimation returns one of the two grid
# neighbors of the true phase (attained when the phase sits mid-cell).
GOOD_ESTIMATE_PROBABILITY = 8.0 / math.pi**2

# Joint-state size guard for the literal circuit simulation.
MAX_CIRCUIT_QUBITS = 12

# Register size guard for the analytic engine: it allocates 2^p masses and a
# few arrays of that length per eigenphase orbit.  Given its float turn t,
# the kernel is good to about 5e-16 relative at every p.  What grows with P
# is the rounding of t itself, P·|t|·eps in x: against 50-digit eigenphases
# the 40 heaviest masses of K_{8,8}, (3, 5) are off by at most 9.0e-13 at
# p = 20.
MAX_ANALYTIC_QUBITS = 20

# Largest unitarity defect and state-norm error the circuit engine accepts.
_UNITARITY_TOL = 1e-8

# Rows of the circuit's joint state that one register transform takes at a time.
_BLOCK_ROWS = 16

_WEIGHT_CLAMP = 1e-14
_MASS_CLAMP = 1e-14


@dataclass(frozen=True, eq=False)
class EigenphaseMixture:
    """Weighted eigenphase orbits ``φ, −φ, π − φ, −(π − φ)`` of base phases φ (radians).

    Row ``j`` of ``orbit_weights`` weighs the first 1 to 4 members of the
    orbit of ``bases[j]``, in that order, all rows of one width (a phase
    given alone is a row of width 1); weights are nonnegative and sum to one.
    Equal bases share one orbit.  :attr:`phases` (mod 2π) and :attr:`weights`
    list the members row by row, as read-only flat arrays.
    """

    bases: np.ndarray
    orbit_weights: np.ndarray
    phases: np.ndarray = field(init=False)
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        bases = np.array(self.bases, dtype=np.float64)
        rows = np.asarray(self.orbit_weights, dtype=np.float64)
        if bases.ndim != 1 or rows.ndim != 2 or rows.shape[0] != bases.size:
            raise ValueError(f"need one row of orbit weights per base, got {rows.shape} for {bases.size} bases")
        if not 1 <= rows.shape[1] <= 4:
            raise ValueError(f"an orbit row weighs 1 to 4 members, got {rows.shape[1]}")
        if not np.isfinite(bases).all():
            raise ValueError(f"base phases must be finite, got {bases}")
        if rows.size and rows.min() < -_WEIGHT_CLAMP:
            raise ValueError(f"negative mixture weight: {rows.min()}")
        rows = np.clip(rows, 0.0, None)
        if not abs(rows.sum() - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"mixture weights sum to {rows.sum()}, expected 1")
        phases = np.array([member for base in bases.tolist() for member in
                           (base, -base, math.pi - base, -(math.pi - base))[:rows.shape[1]]]) % TWO_PI
        for name, values in (("bases", bases), ("orbit_weights", rows),
                             ("phases", phases), ("weights", rows.ravel())):
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    def _orbits(self):
        """Pairs of a base phase ``t`` in turns and the weights of its members
        ``t, −t, 1/2 − t, t − 1/2``; equal bases merge and weightless orbits
        drop out.  Turns come from the bases, not the phases: reduction mod
        2π would round a small negative phase to a float near 2π."""
        orbits: dict[float, list[float]] = {}
        for turn, row in zip((self.bases / TWO_PI).tolist(), self.orbit_weights.tolist()):
            members = orbits.setdefault(turn, [0.0] * 4)
            for member, weight in enumerate(row):
                members[member] += weight
        return [(turn, members) for turn, members in orbits.items() if any(members)]


@dataclass(frozen=True, eq=False)
class PhaseDistribution:
    """Probability mass on the P-point phase grid of a p-qubit register."""

    p: int
    mass: np.ndarray

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"register size must be at least 1 qubit, got {self.p}")
        mass = np.asarray(self.mass, dtype=np.float64)
        if mass.shape != (2**self.p,):
            raise ValueError(f"expected {2**self.p} masses for p={self.p}, got shape {mass.shape}")
        if mass.min() < -_MASS_CLAMP:
            raise ValueError(f"negative probability mass: {mass.min()}")
        mass = np.clip(mass, 0.0, None)
        if not abs(mass.sum() - 1.0) <= 1e-10:  # NaN fails too
            raise ValueError(f"masses sum to {mass.sum()}, expected 1")
        mass.setflags(write=False)
        object.__setattr__(self, "mass", mass)

    @property
    def n_points(self) -> int:
        return 2**self.p

    def omegas(self) -> np.ndarray:
        """Grid phases ``2πm/P`` in index order."""
        return TWO_PI * np.arange(self.n_points) / self.n_points


def _sin_sq_pi(y):
    """``sin²(πy)``, after removing the whole turns of ``y`` exactly.

    np.square, not ** 2: numpy squares arrays as x*x but sends a scalar
    through pow(), which can differ in the last bit.
    """
    return np.square(np.sin(math.pi * (y - np.rint(y))))


def _kernel(numerator, x, grid_size: int):
    """The kernel ``sin²(πx) / (P² sin²(πx/P))`` at ``x = P·(t − s)``, in turns.

    ``numerator`` is ``sin²(πx)``, which callers on the grid compute once per
    phase.  The removable singularity is where ``x/P`` is an integer, so
    that ``sin²(πx/P)`` is 0; the kernel is 1 there.
    """
    denominator = _sin_sq_pi(x / grid_size)
    singular = denominator == 0.0
    values = numerator / (grid_size**2 * np.where(singular, 1.0, denominator))
    return np.where(singular, 1.0, np.minimum(values, 1.0))


def _grid_position(turn: float, p: int) -> float:
    """``P·t``, the grid position of a phase of ``t`` turns on ``P = 2^p`` points, exact.
    From 2^52 on a float64 position has no fraction of a cell left, so one
    that is not a finite float below 2^52 is refused before ``2^p`` is formed."""
    if not abs(turn) < 2.0 ** (52 - p):
        raise ValueError(f"grid position of a phase of {turn!r} turns at p={p} "
                         f"is not a finite float below 2^52")
    return math.ldexp(turn, p)


def _grid_kernel(position: float, grid_size: int) -> np.ndarray:
    """The kernel of the phase at grid ``position`` ``P·t`` at every grid index ``m``.

    ``x = P·t − m`` is formed as ``f − j``: ``f = Pt − rint(Pt)`` is exact,
    and so is the integer ``j = m − rint(Pt)`` reduced into ``[−P/2, P/2)``.
    Their difference is exact at the peak (``j = 0``) and rounds once, to a
    relative error of eps, elsewhere, whatever the sign of ``t``.
    """
    nearest = round(position)
    frac = position - nearest
    half = grid_size // 2
    kernel = _kernel(_sin_sq_pi(frac), frac - np.arange(-half, grid_size - half), grid_size)
    # kernel[i] belongs to m = i − P/2 + rint(Pt) (mod P).
    cut = grid_size - (nearest - half) % grid_size
    return np.concatenate((kernel[cut:], kernel[:cut]))


def fourier_kernel(theta, omega, grid_size: int):
    """Probability that estimation of eigenphase ``theta`` lands on grid phase ``omega``.

    Works elementwise on scalars or arrays.  Periodic in ``theta - omega``
    with period 2π; returns exactly 1 at the removable singularity
    ``theta ≡ omega`` and sums to 1 over any full grid.
    """
    if grid_size < 1:
        raise ValueError(f"grid size must be positive, got {grid_size}")
    x = grid_size * (np.subtract(theta, omega) / TWO_PI)
    return _kernel(_sin_sq_pi(x), x, grid_size)[()]


def exact_distribution(mixture: EigenphaseMixture, p: int) -> PhaseDistribution:
    """Outcome distribution for an eigenphase mixture, via the analytic kernel.

    One grid kernel ``k`` per eigenphase orbit with base ``t`` turns: the
    member ``−t`` is ``k[−m]``, and the pair ``1/2 − t, t − 1/2`` is the
    same two kernels shifted by ``P/2``.  Mirror outcomes ``m`` and ``P − m``
    get bit-equal masses when each orbit weighs ``±t`` alike and
    ``±(1/2 − t)`` alike.

    Raises
    ------
    ValueError
        If ``p < 1``, or a base's grid position is past :func:`_grid_position`.
    ResourceLimitError
        If ``p`` exceeds :data:`MAX_ANALYTIC_QUBITS`.
    """
    if p < 1:
        raise ValueError(f"register size must be at least 1 qubit, got {p}")
    if p > MAX_ANALYTIC_QUBITS:
        raise ResourceLimitError(f"analytic engine limited to p <= {MAX_ANALYTIC_QUBITS}, got {p}")
    orbits = [(_grid_position(turn, p), weights) for turn, weights in mixture._orbits()]
    n, half = 2**p, 2**(p - 1)
    mass = np.zeros(n)
    for position, (w_t, w_minus_t, w_half_minus_t, w_t_minus_half) in orbits:
        kernel = _grid_kernel(position, n)
        mirrored = np.concatenate((kernel[:1], kernel[:0:-1]))
        mass += w_t * kernel + w_minus_t * mirrored
        shifted = w_t_minus_half * kernel + w_half_minus_t * mirrored
        mass[:half] += shifted[half:]
        mass[half:] += shifted[:half]
    return PhaseDistribution(p, mass)


def circuit_distribution(u, psi, p: int) -> PhaseDistribution:
    """Outcome distribution by direct simulation of the estimation circuit.

    The joint state is a ``(d, P)`` array, one column per register value,
    so the register Fourier transform runs along the contiguous axis; the
    engine holds ``d·P/2`` amplitudes of it and one block of rows.  After
    the Hadamards every column is ``ψ/sqrt(P)``, and control bit ``e``
    applies ``u^{2^e}`` (the previous power squared) to each column whose
    bit ``e`` is set.  Bits act in increasing order, so once bits ``0..e-1``
    have acted, column ``m`` equals column ``m mod 2^e``: only the first
    ``2^e`` columns are distinct.  Bit ``e`` then doubles that prefix,
    ``state[:, 2^e:2^{e+1}] = u^{2^e} @ state[:, :2^e]`` (written in place
    by ``np.matmul(..., out=...)``), and each column gets the same powers in
    the same order as a per-bit gather and scatter over all ``P`` columns
    would give it.  The prefix stops at ``P/2`` columns: the last bit's half
    ``u^{P/2} @ state`` is formed one block of rows at a time, beside the
    block's held half, just before the block is transformed.  The cost is
    ``(P-1)·d²`` row work and ``p-1`` squarings, against ``p·(P/2)·d²`` and
    ``p`` for that gather and scatter.  The state takes the promoted dtype
    of ``u`` and ``psi``, so for a real walk and a real start the squarings
    and the prefix doubling run in real arithmetic; a complex operand makes
    them complex.

    The register Fourier transform follows the state's dtype too.  A complex
    state takes the full FFT and the marginal ``|·|²`` summed over the
    system axis.  A real state takes a real-input FFT, ``P/2 + 1`` outcomes
    per row; the marginal of outcomes ``0..P/2`` is ``re² + im²`` summed
    over the system axis and divided by ``P`` (exact, a power of two), and
    outcomes ``P/2+1..P−1`` copy the Hermitian mirror
    ``mass[P − m] = mass[m]``, so mirror masses are bit-equal.  Either
    transform runs over ``_BLOCK_ROWS`` rows of the state at a time, each
    FFT writing into a buffer the engine already holds.  Both branches add
    each block's squares onto one running sum in row order, the order of a
    sum over the whole state, so their masses do not depend on the block
    size.

    Input is validated once, here; the private core ``_circuit_marginal``
    takes the defect of ``u``, so the verify suite, which has just reported
    it for the step it built, forms that step's Gram once.

    Raises
    ------
    ValueError
        If ``u`` is not unitary or ``psi`` is not unit norm, within ``1e-8``.
    ResourceLimitError
        If ``p`` exceeds :data:`MAX_CIRCUIT_QUBITS`.
    """
    um = as_matrix(u)
    vec = as_vector(psi)
    if um.shape[0] != um.shape[1] or um.shape[0] != vec.shape[0]:
        raise ValueError(f"operator shape {um.shape} does not match state dimension {vec.shape[0]}")
    return _circuit_marginal(um, vec, p, unitarity_defect(um))


def _circuit_marginal(um: np.ndarray, vec: np.ndarray, p: int, defect: float) -> PhaseDistribution:
    """:func:`circuit_distribution` on validated ``um`` and ``vec``, given ``unitarity_defect(um)``."""
    if p < 1:
        raise ValueError(f"register size must be at least 1 qubit, got {p}")
    if p > MAX_CIRCUIT_QUBITS:
        raise ResourceLimitError(f"circuit simulation limited to p <= {MAX_CIRCUIT_QUBITS}, got {p}")
    if defect > _UNITARITY_TOL:
        raise ValueError(f"operator is not unitary: defect {defect:.3e} exceeds {_UNITARITY_TOL:.1e}")
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > _UNITARITY_TOL:
        raise ValueError(f"state norm {norm} is not 1 within {_UNITARITY_TOL:.1e}")

    n, half = 2**p, 2**(p - 1)
    d = vec.shape[0]
    state = np.empty((d, half), dtype=np.result_type(um, vec))
    state[:, 0] = vec / math.sqrt(n)
    power = um
    for e in range(p - 1):
        width = 2**e
        np.matmul(power, state[:, :width], out=state[:, width:2 * width])
        power = power @ power
    # Bit p - 1 and the inverse Fourier transform on the register index,
    # _BLOCK_ROWS rows at a time: ``whole`` takes a block's held half and,
    # in its other half, the block's rows of ``u^{P/2} @ state``.  Row 0 of
    # ``rows`` is the running sum and rows 1..b take a block's squares, so
    # one reduction adds them onto it in row order, as a sum over the whole
    # state would.  A one-row product goes to gemv, whose sums can differ
    # from gemm's in the last bit, so a lone last row is formed with the row
    # before it and only the new row is transformed.
    real = not np.iscomplexobj(state)
    whole = np.empty((min(d, _BLOCK_ROWS), n), dtype=state.dtype)
    rows = np.zeros((whole.shape[0] + 1, n + 2 if real else n))
    column = rows[0]
    for start in range(0, d, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, d)
        first = start - 1 if stop - start == 1 and start else start
        block = whole[:stop - first]
        block[:, :half] = state[first:stop]
        np.matmul(power[first:stop], state, out=block[:, half:])
        block = block[start - first:]
        _transform_squares(block, rows[1:block.shape[0] + 1])
        np.add.reduce(rows[:block.shape[0] + 1], axis=0, out=column)
    del state, whole, power
    if not real:
        return PhaseDistribution(p, column)
    mass = np.empty(n)
    mass[:half + 1] = (column[0::2] + column[1::2]) / n
    mass[half + 1:] = mass[half - 1:0:-1]
    return PhaseDistribution(p, mass)


def _transform_squares(block: np.ndarray, out: np.ndarray) -> None:
    """Write the squared register transform of ``block``'s rows into ``out``.

    A real block takes the real-input FFT into the complex view of ``out``,
    whose ``re, im`` pairs are then squared.  A complex block takes the FFT
    in place, then ``|· / sqrt(P)|²`` into ``out``.  Neither allocates a
    transform of its own.
    """
    if np.iscomplexobj(block):
        np.fft.fft(block, axis=1, out=block)
        block /= math.sqrt(block.shape[1])  # before |·|²: sqrt(2^p) is inexact at odd p
        np.abs(block, out=out)
    else:
        np.fft.rfft(block, axis=1, out=out.view(np.complex128))
    np.square(out, out=out)


def grid_indices(cumulative: np.ndarray, uniforms):
    """Grid indices of ``uniforms`` in [0, 1): each is the first index whose
    ``cumulative`` mass exceeds it, capped at the last (rounding can leave the
    total below a uniform).  Elementwise on a scalar or an array."""
    return np.minimum(np.searchsorted(cumulative, uniforms, side="right"), cumulative.size - 1)


def sample(dist: PhaseDistribution, seed: int, n: int) -> np.ndarray:
    """Draw ``n`` grid phases (radians); identical arguments give identical output."""
    if n < 1:
        raise ValueError(f"sample count must be at least 1, got {n}")
    uniforms = np.random.default_rng(seed).random(n)
    return dist.omegas()[grid_indices(np.cumsum(dist.mass), uniforms)]


def total_variation(a: PhaseDistribution, b: PhaseDistribution) -> float:
    """Total variation distance between two distributions on the same grid."""
    if a.p != b.p:
        raise ValueError(f"grid mismatch: p={a.p} vs p={b.p}")
    return float(0.5 * np.abs(a.mass - b.mass).sum())


def good_estimate_mass(theta: float, p: int) -> float:
    """Probability that estimation of ``theta`` returns one of its two grid neighbors.

    At least :data:`GOOD_ESTIMATE_PROBABILITY` for every ``theta``; equals 1
    when ``theta`` lies on the grid.  The kernel is evaluated at the exact
    fraction of a cell ``f = P·t − floor(P·t)``, at ``x = f`` and ``f − 1``,
    so no cell fraction is lost at fine grids.  ``ValueError`` unless
    ``theta`` is finite and ``p`` is 1 to 52, so that every grid position is
    below 2^52.
    """
    if not 1 <= p <= 52:
        raise ValueError(f"register size must be 1 to 52 qubits, got {p}")
    position = _grid_position(float(theta) % TWO_PI / TWO_PI, p)
    fraction = position - math.floor(position)
    if fraction == 0.0:
        return 1.0
    return float(_kernel(_sin_sq_pi(fraction), np.array([fraction, fraction - 1.0]), 2**p).sum())
