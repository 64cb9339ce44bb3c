import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qwcount import (
    BipartiteInstance,
    EigenphaseMixture,
    GOOD_ESTIMATE_PROBABILITY,
    PhaseDistribution,
    angles_from_instance,
    build_evolution,
    build_oracle,
    build_reduced_evolution,
    circuit_distribution,
    eigenphase_table,
    exact_distribution,
    fourier_kernel,
    good_estimate_mass,
    reduced_uniform_state,
    sample,
    total_variation,
    uniform_state,
)
import qwcount.phase_estimation as phase_estimation
from qwcount.cli import main
from qwcount.counting import grover_mixture
from qwcount.errors import ResourceLimitError
from qwcount.phase_estimation import MAX_ANALYTIC_QUBITS, MAX_CIRCUIT_QUBITS, grid_indices
from qwcount.reduced import WalkAngles, part_angle

from conftest import iter_count_instances, radian_masses, random_instances

TWO_PI = 2 * math.pi

FIG2 = BipartiteInstance(4, 3, frozenset({1, 3}), frozenset({1}))
K88 = BipartiteInstance.from_counts(8, 8, 3, 5)

# Mid-cell kernel value at P = 8, evaluated directly: 1 / (64 sin^2(pi/16)).
MIDPOINT_KERNEL_P8 = 0.4105334745170029


def fig2_distribution(p):
    return exact_distribution(eigenphase_table(angles_from_instance(FIG2)), p)


def test_kernel_exact_hit():
    assert fourier_kernel(1.2345, 1.2345, 16) == 1.0
    assert fourier_kernel(0.0, TWO_PI, 8) == 1.0


def test_kernel_vanishes_between_grid_points():
    for m in range(1, 8):
        assert fourier_kernel(0.0, TWO_PI * m / 8, 8) < 1e-30


def test_kernel_midpoint_value():
    theta = TWO_PI * 2.5 / 8
    assert fourier_kernel(theta, TWO_PI * 2 / 8, 8) == pytest.approx(MIDPOINT_KERNEL_P8, abs=1e-12)
    assert fourier_kernel(theta, TWO_PI * 3 / 8, 8) == pytest.approx(MIDPOINT_KERNEL_P8, abs=1e-12)


def test_kernel_periodic_and_bounded():
    rng = np.random.default_rng(13)
    for theta, omega in rng.uniform(0, TWO_PI, (200, 2)):
        value = fourier_kernel(theta, omega, 32)
        assert 0.0 <= value <= 1.0
        assert fourier_kernel(theta + TWO_PI, omega, 32) == pytest.approx(value, abs=1e-12)


def test_kernel_rejects_bad_grid():
    with pytest.raises(ValueError):
        fourier_kernel(0.0, 0.0, 0)
    with pytest.raises(ValueError):
        fourier_kernel(np.zeros(4), TWO_PI * np.arange(4) / 4, 0)
    with pytest.raises(ValueError):
        fourier_kernel(0.5, np.zeros(3), -2)


@pytest.mark.parametrize("p", range(1, 15))
def test_kernel_on_grid_matches_scalar_calls(p):
    # The whole-grid evaluation that exact_distribution uses must equal the
    # per-point scalar evaluation bit for bit, also at the removable
    # singularity (on-grid phases) and for phases shifted by 2π.
    rng = np.random.default_rng(100 + p)
    n = 2**p
    omegas = TWO_PI * np.arange(n) / n
    on_grid = TWO_PI * rng.integers(0, n) / n
    thetas = [rng.uniform(0, TWO_PI), on_grid]
    thetas += [theta + TWO_PI for theta in thetas]
    for theta in thetas:
        grid = fourier_kernel(theta, omegas, n)
        scalar = np.array([fourier_kernel(theta, omega, n) for omega in omegas])
        assert grid.shape == (n,)
        assert np.array_equal(grid, scalar)
    assert fourier_kernel(on_grid, omegas, n).max() == 1.0


@pytest.mark.parametrize("p", range(1, 11))
def test_kernel_normalization(p):
    rng = np.random.default_rng(p)
    n = 2**p
    for theta in rng.uniform(0, TWO_PI, 5):
        total = sum(fourier_kernel(theta, TWO_PI * m / n, n) for m in range(n))
        assert abs(total - 1.0) < 1e-10


@pytest.mark.parametrize("p", [3, 5, 8])
def test_good_estimate_mass_bound(p):
    thetas = np.linspace(0.0, TWO_PI, 500, endpoint=False)
    masses = [good_estimate_mass(float(t), p) for t in thetas]
    assert min(masses) >= GOOD_ESTIMATE_PROBABILITY - 1e-12
    # On-grid phases are estimated with certainty.
    assert good_estimate_mass(TWO_PI * 3 / 2**p, p) == 1.0


def test_good_estimate_mass_midpoint():
    theta = TWO_PI * 2.5 / 8
    assert good_estimate_mass(theta, 3) == pytest.approx(2 * MIDPOINT_KERNEL_P8, abs=1e-12)


def test_good_estimate_mass_bound_holds_at_every_register():
    # Evaluated at the exact fraction of a cell, the bound holds up to p = 52,
    # where a kernel formed from theta - omega in radians fell to 0.41.
    thetas = np.linspace(0.0, TWO_PI, 1000, endpoint=False)
    for p in range(1, 53):
        masses = [good_estimate_mass(float(t), p) for t in thetas]
        assert min(masses) >= GOOD_ESTIMATE_PROBABILITY - 1e-15, p
        assert good_estimate_mass(TWO_PI * 3 / 2**p, p) == 1.0


def test_a_grid_position_past_float_resolution_is_a_value_error():
    # From 2^52 on a float64 grid position P·t is a whole number.
    beyond = "is not a finite float below 2\\^52"
    for base in (1e308, 1e20, -1e20, TWO_PI * 2**32):
        with pytest.raises(ValueError, match=beyond):
            exact_distribution(EigenphaseMixture([base], [[1.0]]), MAX_ANALYTIC_QUBITS)
    # The largest accepted base at p = 20 sits at position 2^51.
    far = exact_distribution(EigenphaseMixture([TWO_PI * (2**31 + 0.25)], [[1.0]]), 20)
    assert far.mass.argmax() == 2**18
    for theta in (math.nan, math.inf):
        with pytest.raises(ValueError, match=beyond):
            good_estimate_mass(theta, 4)
    for p in (0, -1, 53, 2000, 2**63):
        with pytest.raises(ValueError, match=f"^register size must be 1 to 52 qubits, got {p}$"):
            good_estimate_mass(0.1, p)
    for p in range(1, 53):
        for theta in (0.0, 0.1, math.pi, 6.28):
            assert 0.0 < good_estimate_mass(theta, p) <= 1.0


def test_exact_distribution_point_mass():
    mixture = EigenphaseMixture([TWO_PI * 3 / 16], [[1.0]])
    dist = exact_distribution(mixture, 4)
    assert dist.mass[3] == pytest.approx(1.0, abs=1e-12)
    assert dist.mass.sum() == pytest.approx(1.0, abs=1e-12)


def test_exact_distribution_symmetric_mixture():
    theta = 0.9
    mixture = EigenphaseMixture([theta, TWO_PI - theta], [[0.5], [0.5]])
    mass = exact_distribution(mixture, 5).mass
    assert np.abs(mass[1:] - mass[1:][::-1]).max() < 1e-14


def test_mixture_validation():
    # Each case breaks one rule; where a sum is not the rule broken, it is 1.
    cases = [
        ("one row of orbit weights per base", [0.1, 0.2], [[0.5, 0.5]]),
        ("one row of orbit weights per base", [0.1], [[0.5], [0.5]]),
        ("one row of orbit weights per base", [0.1], [0.5, 0.5]),
        ("1 to 4 members", [0.1], np.zeros((1, 0))),
        ("1 to 4 members", [0.1], [[0.2] * 5]),
        ("negative mixture weight", [0.1, 0.2], [[0.5, 0.7], [-0.2, 0.0]]),
        ("sum to", [0.1, 0.2], [[0.5, 0.5], [0.5, 0.5]]),
        ("sum to", [0.1], [[0.25, 0.25, 0.25]]),
        ("sum to", [], np.zeros((0, 2))),
    ]
    for message, bases, weights in cases:
        with pytest.raises(ValueError, match=message):
            EigenphaseMixture(bases, weights)
    # Ragged rows are rejected, and the accepted edge cases build.
    with pytest.raises(ValueError):
        EigenphaseMixture([0.1, 0.2], [[0.5], [0.25, 0.25]])
    assert EigenphaseMixture([0.1], [[0.25] * 4]).phases.size == 4
    assert EigenphaseMixture([0.1], [[1.0 + 1e-13, -1e-14]]).weights.min() == 0.0


@pytest.mark.parametrize("bases, weights, message", [
    ([0.1], [[math.nan]], "sum to nan"),
    ([0.1, 0.2], [[1.0], [math.nan]], "sum to nan"),
    ([0.1], [[math.inf]], "sum to inf"),
    ([math.nan], [[1.0]], "base phases must be finite"),
    ([math.inf], [[1.0]], "base phases must be finite"),
    ([0.1, -math.inf], [[0.5], [0.5]], "base phases must be finite"),
], ids=["nan_weight", "nan_second_row", "inf_weight", "nan_base", "inf_base", "neg_inf_base"])
def test_mixture_rejects_non_finite_input(bases, weights, message):
    # A NaN compares False both ways, so each check is written to fail on it.
    with pytest.raises(ValueError, match=message):
        EigenphaseMixture(bases, weights)


def test_exact_distribution_of_nan_mixture_raises():
    with pytest.raises(ValueError, match="sum to nan"):
        exact_distribution(EigenphaseMixture([0.1], [[math.nan]]), 3)


def test_orbit_tables_keep_their_flat_phases_and_weights():
    # phases/weights list the orbit members row by row, bit-equal to the
    # members written out one by one and reduced mod 2π.
    def members(base, width):
        return [base, -base, math.pi - base, -(math.pi - base)][:width]

    fractions = [*FRACTIONS_N8, Fraction(13, 64), Fraction(29, 64)]
    for f0 in fractions:
        for f1 in fractions:
            angles = WalkAngles(part_angle(f0.numerator, f0.denominator),
                                part_angle(f1.numerator, f1.denominator))
            mu, sigma = angles.mu, angles.sigma
            w_mu, w_pi_mu = math.cos(sigma / 2.0) ** 2 / 4.0, math.sin(sigma / 2.0) ** 2 / 4.0
            w_sigma, w_pi_sigma = math.cos(mu / 2.0) ** 2 / 4.0, math.sin(mu / 2.0) ** 2 / 4.0
            table = eigenphase_table(angles)
            assert np.array_equal(table.phases, np.array(members(mu, 4) + members(sigma, 4)) % TWO_PI)
            assert np.array_equal(table.weights, [w_mu, w_mu, w_pi_mu, w_pi_mu,
                                                  w_sigma, w_sigma, w_pi_sigma, w_pi_sigma])
    for f in fractions:
        grover = grover_mixture(f.denominator, f.numerator)
        theta = part_angle(f.numerator, f.denominator)
        assert np.array_equal(grover.phases, np.array(members(theta, 2)) % TWO_PI)
        assert np.array_equal(grover.weights, [0.5, 0.5])
    for array in (table.phases, table.weights, grover.phases, grover.weights):
        assert not array.flags.writeable


# Every marked fraction k/n with n <= 8.  A mixture depends on (k, n) only
# through the float 2k/n (or k/n for Grover search), which is the same for
# equal fractions, so one representative per fraction covers every k.
FRACTIONS_N8 = sorted({Fraction(k, n) for n in range(1, 9) for k in range(n + 1)})


def _walk_mixtures():
    """(name, mixture, orbit count) for the full case, the part case and Grover search."""
    for f0 in FRACTIONS_N8:
        for f1 in FRACTIONS_N8:
            angles = WalkAngles(part_angle(f0.numerator, f0.denominator),
                                part_angle(f1.numerator, f1.denominator))
            # theta1 = 0 is the part case: mu = sigma, one orbit.
            yield f"walk {f0} {f1}", eigenphase_table(angles), 1 if f1 == 0 else 2
    for f in FRACTIONS_N8:
        yield f"grover {f}", grover_mixture(f.denominator, f.numerator), 1


@pytest.fixture
def kernel_calls(monkeypatch):
    """Grid sizes of the grid-length kernel evaluations made while the test runs."""
    calls = []
    grid_kernel = phase_estimation._grid_kernel

    def counted(turn, grid_size):
        calls.append(grid_size)
        return grid_kernel(turn, grid_size)

    monkeypatch.setattr(phase_estimation, "_grid_kernel", counted)
    return calls


@pytest.mark.parametrize("p", range(1, 13))
def test_orbit_mixtures_give_bit_equal_mirror_outcomes(p, kernel_calls):
    size = 2**p
    mirror = (size - np.arange(size)) % size
    for name, mixture, orbits in _walk_mixtures():
        kernel_calls.clear()
        mass = exact_distribution(mixture, p).mass
        assert np.array_equal(mass, mass[mirror]), name
        assert kernel_calls == [size] * orbits, name


def test_lone_phases_are_one_orbit_each(kernel_calls):
    phases = np.array([0.3, -0.3, math.pi - 0.3, 2.0])
    mixture = EigenphaseMixture(phases, np.full((4, 1), 0.25))
    mass = exact_distribution(mixture, 6).mass
    assert kernel_calls == [64] * 4
    assert np.abs(mass - radian_masses(mixture.phases, mixture.weights, 6)).max() < 1e-14


def test_orbit_members_take_their_own_weights(kernel_calls):
    # Four different member weights, and a base listed twice (one orbit).
    mixture = EigenphaseMixture(
        [0.3, -1.1, 0.3], [[0.1, 0.05, 0.15, 0.02], [0.2, 0.03, 0.07, 0.13], [0.05, 0.1, 0.0, 0.1]])
    for p in (1, 2, 7):
        kernel_calls.clear()
        mass = exact_distribution(mixture, p).mass
        assert kernel_calls == [2**p] * 2
        assert np.abs(mass - radian_masses(mixture.phases, mixture.weights, p)).max() < 1e-14


def _random_mixture(rng):
    count = int(rng.integers(1, 9))
    weights = rng.random(count)
    return rng.uniform(-TWO_PI, TWO_PI, count), weights / weights.sum()


def _structured_mixtures(p):
    size = 2**p
    for inst in (FIG2, BipartiteInstance.from_counts(8, 8, 3, 5),
                 BipartiteInstance.from_counts(64, 64, 13, 29)):
        table = eigenphase_table(angles_from_instance(inst))
        yield table.phases, table.weights
    for n, k in ((4, 1), (7, 3), (8, 8)):
        grover = grover_mixture(n, k)
        yield grover.phases, grover.weights
    # On the grid, a hair off it, mid-cell, and at 0 and π.
    for phase in (TWO_PI * 3 / size, TWO_PI * 3 / size + 1e-15, TWO_PI * 2.5 / size,
                  0.0, math.pi, -math.pi / 3):
        yield np.array([phase]), np.array([1.0])


@pytest.mark.parametrize("p", range(1, 15))
def test_exact_distribution_matches_radian_reference(p):
    # Both kernels carry the rounding of a float phase, which P multiplies:
    # the radian one in PΔ/2, the turn one in P·t, each worth up to about
    # P·eps in a mass.  Through p = 12 they agree within 1e-12 (7.8e-13 at
    # worst over 300 random mixtures); at p = 13 and 14 they part by up to
    # 1.1·P·eps, so there the bound is the sum of the two, 2·P·eps.
    tolerance = 1e-12 if p <= 12 else 2**(p + 1) * np.finfo(float).eps
    rng = np.random.default_rng(500 + p)
    mixtures = [_random_mixture(rng) for _ in range(10)] + list(_structured_mixtures(p))
    for phases, weights in mixtures:
        mixture = EigenphaseMixture(phases, weights[:, None])
        reference = radian_masses(mixture.phases, mixture.weights, p)
        assert np.abs(exact_distribution(mixture, p).mass - reference).max() <= tolerance, phases


# Largest error of the 40 heaviest analytic masses of K_{8,8}, (3, 5), by p,
# measured against 50-digit sums at the float eigenphases (ROADMAP baseline).
BASELINE_HEAVY_MASS_ERROR = {8: 1.0e-15, 12: 2.5e-14, 16: 1.6e-12, 20: 1.3e-11}


def _mp_masses(mp, counts, p, indices):
    """Masses at ``indices`` with 50 digits, from the eigenphases of the exact angles."""
    (n0, k0), (n1, k1) = counts
    theta0 = mp.acos(1 - mp.mpf(2 * k0) / n0)
    theta1 = mp.acos(1 - mp.mpf(2 * k1) / n1)
    mu, sigma = (theta0 + theta1) / 2, (theta0 - theta1) / 2
    orbits = ((mu, mp.cos(sigma / 2) ** 2 / 4, mp.sin(sigma / 2) ** 2 / 4),
              (sigma, mp.cos(mu / 2) ** 2 / 4, mp.sin(mu / 2) ** 2 / 4))
    size = 2**p
    masses = []
    for m in indices:
        total = mp.mpf(0)
        for base, w_base, w_pi in orbits:
            for phase, weight in ((base, w_base), (-base, w_base),
                                  (mp.pi - base, w_pi), (base - mp.pi, w_pi)):
                half = (phase - 2 * mp.pi * int(m) / size) / 2
                if abs(mp.sin(half)) < mp.mpf(10) ** -40:
                    total += weight
                else:
                    total += weight * mp.sin(size * half) ** 2 / (size * mp.sin(half)) ** 2
        masses.append(total)
    return masses


# K_{8,8} with (3, 5) marked, and the off-grid part of the flagship K_{4,3}
# instance (one of three marked in part 1; its part 0 sits on the grid).
@pytest.mark.parametrize("counts", [((8, 3), (8, 5)), ((3, 1), (1, 0))])
def test_heavy_masses_match_exact_eigenphases(counts):
    mp = pytest.importorskip("mpmath")
    (n0, k0), (n1, k1) = counts
    angles = WalkAngles(part_angle(k0, n0), part_angle(k1, n1))
    for p, bound in BASELINE_HEAVY_MASS_ERROR.items():
        mass = exact_distribution(eigenphase_table(angles), p).mass
        heavy = np.argsort(mass)[-40:]
        with mp.workdps(50):
            exact = _mp_masses(mp, counts, p, heavy)
            error = max(abs(mp.mpf(float(mass[m])) - value) for m, value in zip(heavy, exact))
        assert error <= bound, (p, float(error))


def test_phase_distribution_validation():
    with pytest.raises(ValueError):
        PhaseDistribution(2, np.full(4, 0.3))
    with pytest.raises(ValueError):
        PhaseDistribution(2, np.array([1.5, -0.5, 0.0, 0.0]))
    with pytest.raises(ValueError):
        PhaseDistribution(2, np.full(3, 1 / 3))


@pytest.mark.parametrize("mass", [[math.nan, math.nan], [1.0, math.nan], [math.inf, 0.0],
                                  [math.inf, math.inf]])
def test_phase_distribution_rejects_non_finite_masses(mass):
    with pytest.raises(ValueError, match="masses sum to"):
        PhaseDistribution(1, mass)


def test_circuit_identity_gives_zero_phase():
    dist = circuit_distribution(np.eye(3), np.array([1.0, 0.0, 0.0]), 3)
    assert dist.mass[0] == pytest.approx(1.0, abs=1e-12)


def test_circuit_on_grid_eigenphase():
    dist = circuit_distribution(np.diag([np.exp(1j * math.pi / 2)]), np.array([1.0]), 2)
    assert dist.mass[1] == pytest.approx(1.0, abs=1e-12)  # omega = 2*pi/4


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_engines_agree_on_reduced_model(p):
    angles = angles_from_instance(FIG2)
    analytic = exact_distribution(eigenphase_table(angles), p)
    circuit = circuit_distribution(build_reduced_evolution(angles), reduced_uniform_state(angles), p)
    assert total_variation(analytic, circuit) < 1e-8


@pytest.mark.parametrize("inst", [FIG2] + random_instances(4, 5, seed=14))
def test_engines_agree_on_full_space(inst):
    analytic = exact_distribution(eigenphase_table(angles_from_instance(inst)), 4)
    evolution = build_evolution(inst, build_oracle(inst))
    circuit = circuit_distribution(evolution, uniform_state(inst), 4)
    assert total_variation(analytic, circuit) < 1e-8


def per_bit_circuit_masses(u, psi, p):
    """Reference: one gather, multiply and scatter per control bit on a (P, d) state."""
    n = 2**p
    state = np.tile(np.asarray(psi, dtype=np.complex128) / math.sqrt(n), (n, 1))
    power = np.asarray(u, dtype=np.complex128)
    for e in range(p):
        rows = (np.arange(n) >> e) & 1 == 1
        state[rows] = state[rows] @ power.T
        power = power @ power
    state = np.fft.fft(state, axis=0) / math.sqrt(n)
    return (np.abs(state) ** 2).sum(axis=1)


def random_unitary_and_state(rng, d):
    gaussian = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(gaussian)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    return u, psi / np.linalg.norm(psi)


def assert_matches_per_bit(u, psi, p):
    masses = circuit_distribution(u, psi, p).mass
    reference = per_bit_circuit_masses(u, psi, p)
    assert masses.shape == reference.shape
    assert np.abs(masses - reference).max() <= 2e-15


@pytest.mark.parametrize("p", range(1, 9))
def test_circuit_matches_per_bit_reference_on_walks(p):
    for inst in iter_count_instances(4):
        assert_matches_per_bit(build_evolution(inst, build_oracle(inst)), uniform_state(inst), p)


@pytest.mark.parametrize("p", [*range(1, 9), MAX_CIRCUIT_QUBITS])
def test_circuit_real_walk_matches_complex_cast(p):
    # A real step runs the prefix in real arithmetic and the register
    # transform as a real-input FFT with mirrored outcomes; the same step
    # cast to complex128 runs both in complex arithmetic, with the full FFT.
    instances = iter_count_instances(4) if p < MAX_CIRCUIT_QUBITS else [K88]
    for inst in instances:
        evolution, start = build_evolution(inst, build_oracle(inst)), uniform_state(inst)
        assert evolution.dtype == start.dtype == np.float64
        real = circuit_distribution(evolution, start, p).mass
        cplx = circuit_distribution(evolution.astype(np.complex128), start.astype(np.complex128), p).mass
        assert np.abs(real - cplx).max() <= 2e-15


@pytest.mark.parametrize("p", [1, 2, 5, MAX_CIRCUIT_QUBITS])
def test_circuit_real_walk_has_bit_equal_mirror_masses(p):
    # Outcomes P/2+1..P-1 are copies of 1..P/2-1; at p = 1 there are none.
    for inst in [*iter_count_instances(3), K88]:
        mass = circuit_distribution(build_evolution(inst, build_oracle(inst)),
                                    uniform_state(inst), p).mass
        assert mass.shape == (2**p,)
        assert np.array_equal(mass[1:], mass[:0:-1])


@pytest.mark.parametrize("d", [1, 2, 5, 17, 64])
def test_circuit_matches_per_bit_reference_on_random_unitaries(d):
    # Each p takes a complex unitary and a real orthogonal matrix, so both
    # register transforms run from p = 1 (P = 2) up.
    rng = np.random.default_rng(500 + d)
    for p in range(1, 11):
        assert_matches_per_bit(*random_unitary_and_state(rng, d), p)
        orthogonal, _ = np.linalg.qr(rng.normal(size=(d, d)))
        psi = rng.normal(size=d)
        assert_matches_per_bit(orthogonal, psi / np.linalg.norm(psi), p)


def test_circuit_matches_per_bit_reference_at_largest_register():
    assert K88.dim == 128
    assert_matches_per_bit(build_evolution(K88, build_oracle(K88)), uniform_state(K88),
                           MAX_CIRCUIT_QUBITS)


def one_shot_circuit_masses(u, psi, p):
    """Reference: the prefix doubling, then one register transform over the whole state."""
    n = 2**p
    state = np.empty((psi.shape[0], n), dtype=np.result_type(u, psi))
    state[:, 0] = psi / math.sqrt(n)
    power = u
    for e in range(p):
        if e:
            power = power @ power
        np.matmul(power, state[:, :2**e], out=state[:, 2**e:2**(e + 1)])
    if np.iscomplexobj(state):
        state = np.fft.fft(state, axis=1)
        state /= math.sqrt(n)
        return (np.abs(state) ** 2).sum(axis=0)
    squares = np.fft.rfft(state, axis=1).view(np.float64)
    np.square(squares, out=squares)
    column = squares.sum(axis=0)
    mass = np.empty(n)
    mass[:n // 2 + 1] = (column[0::2] + column[1::2]) / n
    mass[n // 2 + 1:] = mass[n // 2 - 1:0:-1]
    return mass


BLOCK = phase_estimation._BLOCK_ROWS


@pytest.mark.parametrize("d", [1, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1, 84, 128])
@pytest.mark.parametrize("p", [1, 2, 11])
def test_blocked_register_transform_is_bit_identical_to_one_shot(d, p):
    # Blocks add their squares onto the running sum in row order, so the
    # masses do not depend on the block size, on either branch.
    rng = np.random.default_rng(900 + d)
    orthogonal, _ = np.linalg.qr(rng.normal(size=(d, d)))
    psi = rng.normal(size=d)
    cases = [(orthogonal, psi / np.linalg.norm(psi)), random_unitary_and_state(rng, d)]
    for u, start in cases:
        masses = circuit_distribution(u, start, p).mass
        assert np.array_equal(masses, one_shot_circuit_masses(u, start, p))


def traced_peak(call):
    call()  # warm-up, so one-time allocations are not counted
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_circuit_on_largest_walk_holds_its_state_and_a_bounded_block():
    # The 128 x 4096 float64 state is 4 MiB, of which the engine holds half
    # beside one 16-row block: 3.19 MiB under tracemalloc (numpy 2.4).
    # Holding the whole state beside a block peaks at 5.03 MiB, above the
    # bound.
    evolution, start = build_evolution(K88, build_oracle(K88)), uniform_state(K88)
    peak = traced_peak(lambda: circuit_distribution(evolution, start, MAX_CIRCUIT_QUBITS))
    assert peak < 4 * 2**20


def test_complex_circuit_holds_its_state_and_a_bounded_block():
    # The 128 x 2048 complex128 state is 4 MiB, of which the engine holds
    # half beside one 16-row block, transformed in place: 3.03 MiB.  Holding
    # the whole state beside a block peaks at 4.77 MiB, above the bound.
    u, psi = random_unitary_and_state(np.random.default_rng(128), 128)
    peak = traced_peak(lambda: circuit_distribution(u, psi, 11))
    assert peak < 4 * 2**20


def test_circuit_rejects_nonunitary():
    with pytest.raises(ValueError):
        circuit_distribution(np.diag([1.0, 2.0]), np.array([1.0, 0.0]), 3)


def test_circuit_rejects_unnormalized_state():
    with pytest.raises(ValueError):
        circuit_distribution(np.eye(2), np.array([1.0, 1.0]), 3)


def test_circuit_validation_tolerance_is_1e_8():
    # The defect of diag(1 + x, 1) is (1 + x)² - 1, about 2x.
    with pytest.raises(ValueError, match="within 1.0e-08"):
        circuit_distribution(np.eye(2), np.array([1.0 + 2e-8, 0.0]), 3)
    with pytest.raises(ValueError, match="exceeds 1.0e-08"):
        circuit_distribution(np.diag([1.0 + 1e-8, 1.0]), np.array([1.0, 0.0]), 3)


def test_circuit_rejects_oversize_register():
    with pytest.raises(ResourceLimitError):
        circuit_distribution(np.eye(2), np.array([1.0, 0.0]), 13)


@pytest.mark.parametrize("p", [MAX_ANALYTIC_QUBITS + 1, 64])
def test_analytic_rejects_oversize_register_before_allocating(p):
    mixture = eigenphase_table(angles_from_instance(FIG2))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=f"p <= {MAX_ANALYTIC_QUBITS}"):
            exact_distribution(mixture, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("p", [MAX_ANALYTIC_QUBITS + 1, 64])
def test_cli_analytic_oversize_register_exits_1(capsys, p):
    argv = ["distribution", "--n0", "4", "--n1", "3", "--k0", "2", "--k1", "1",
            "--p", str(p), "--engine", "analytic"]
    tracemalloc.start()
    try:
        status = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert f"analytic engine limited to p <= {MAX_ANALYTIC_QUBITS}, got {p}" in captured.err
    assert peak < 2**20


def test_analytic_accepts_largest_register():
    dist = exact_distribution(EigenphaseMixture([0.3], [[1.0]]), MAX_ANALYTIC_QUBITS)
    assert dist.n_points == 2**MAX_ANALYTIC_QUBITS


def test_sample_point_mass():
    mixture = EigenphaseMixture([TWO_PI * 5 / 16], [[1.0]])
    dist = exact_distribution(mixture, 4)
    draws = sample(dist, seed=1, n=50)
    assert np.abs(draws - TWO_PI * 5 / 16).max() < 1e-12


def test_sample_is_deterministic():
    dist = fig2_distribution(6)
    first = sample(dist, seed=42, n=1000)
    second = sample(dist, seed=42, n=1000)
    assert np.array_equal(first, second)
    assert not np.array_equal(first, sample(dist, seed=43, n=1000))


def test_sample_rejects_zero_draws():
    with pytest.raises(ValueError):
        sample(fig2_distribution(3), seed=1, n=0)


def test_grid_indices_exact_cumulative_value_goes_to_next_index():
    # side="right": a uniform equal to a cumulative value lies past that cell.
    cumulative = np.array([0.25, 0.5, 0.75, 1.0])
    assert grid_indices(cumulative, 0.25) == 1
    assert grid_indices(cumulative, 0.0) == 0
    assert list(grid_indices(cumulative, np.array([0.25, 0.5, 0.75]))) == [1, 2, 3]


def test_grid_indices_caps_uniform_above_a_short_total():
    # A total that rounded below 1 leaves uniforms above it; they take the last index.
    cumulative = np.array([0.5, 1.0 - 2**-52])
    assert grid_indices(cumulative, 1.0 - 2**-53) == 1
    assert grid_indices(cumulative, 1.0 - 2**-52) == 1


def test_grid_indices_never_choose_a_zero_mass_cell():
    # Uniforms in [0, 1), the cumulative values below 1 among them.
    cumulative = np.cumsum([0.0, 0.3, 0.0, 0.0, 0.7, 0.0])
    uniforms = np.concatenate((np.linspace(0.0, 1.0, 1001, endpoint=False),
                               cumulative[cumulative < 1.0]))
    picks = grid_indices(cumulative, uniforms)
    assert set(picks.tolist()) == {1, 4}


def test_grid_indices_keeps_the_shape_of_its_input():
    cumulative = np.array([0.5, 1.0])
    scalar = grid_indices(cumulative, 0.75)
    assert np.ndim(scalar) == 0 and scalar == 1
    array = grid_indices(cumulative, np.array([0.25, 0.75]))
    assert isinstance(array, np.ndarray) and array.shape == (2,) and list(array) == [0, 1]
    assert grid_indices(cumulative, np.array([[0.25], [0.75]])).shape == (2, 1)


def test_sample_frequencies_match_masses():
    # Fixed-seed statistical check: every empirical frequency within four
    # binomial standard deviations of its exact mass.
    dist = fig2_distribution(6)
    n = 100_000
    draws = sample(dist, seed=42, n=n)
    indices = np.rint(draws / (TWO_PI / dist.n_points)).astype(int) % dist.n_points
    frequencies = np.bincount(indices, minlength=dist.n_points) / n
    sigma = np.sqrt(dist.mass * (1 - dist.mass) / n)
    assert np.all(np.abs(frequencies - dist.mass) <= 4 * sigma + 1e-15)


def test_total_variation_requires_same_grid():
    with pytest.raises(ValueError):
        total_variation(fig2_distribution(3), fig2_distribution(4))
