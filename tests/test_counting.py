import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qwcount import (
    BipartiteInstance,
    CountDistribution,
    CountEstimate,
    FullCountDistribution,
    FullCountEstimate,
    adjusted_full_count_error_bound,
    adjusted_partial_count_error_bound,
    circuit_distribution,
    exact_distribution,
    full_count,
    full_count_error_bound,
    GOOD_ESTIMATE_PROBABILITY,
    grover_count,
    grover_mixture,
    partial_count,
    partial_count_error_bound,
    total_variation,
)
from qwcount.reduced import angles_from_instance, eigenphase_table

from conftest import (
    estimate_k,
    fold_phase,
    iter_count_instances,
    random_instances,
    reflect_phase,
    single_part_instance,
)

TWO_PI = 2 * math.pi

FIG2 = BipartiteInstance(4, 3, frozenset({1, 3}), frozenset({1}))


# fold_phase, reflect_phase and estimate_k are the float reference in
# conftest; the tests below pin it to the scalar rules of _literal_fold, and
# the package's fold by grid index is then checked against it.


def test_fold_phase_examples():
    assert fold_phase(3 * math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-15)
    assert fold_phase(math.pi - 0.3) == pytest.approx(0.3, abs=1e-15)
    assert fold_phase(math.pi) == 0.0
    assert fold_phase(0.0) == 0.0
    # The boundary pi/2 is a fixed point (both rules are strict).
    assert fold_phase(math.pi / 2) == math.pi / 2
    for omega in (3 * math.pi / 2, math.pi - 0.3, math.pi, 0.0, math.pi / 2):
        assert fold_phase(omega) == _literal_fold(omega)


@pytest.mark.parametrize("seed", [0, 1])
def test_fold_phase_range_and_idempotence(seed):
    rng = np.random.default_rng(seed)
    for omega in rng.uniform(0, TWO_PI, 300):
        folded = fold_phase(float(omega))
        assert folded == _literal_fold(float(omega))
        assert 0.0 <= folded <= math.pi / 2
        assert fold_phase(folded) == folded


def test_reflect_phase():
    assert reflect_phase(3 * math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-15)
    assert reflect_phase(0.4) == 0.4
    assert reflect_phase(math.pi) == math.pi
    # The second rule of the literal fold is all that reflection leaves to do.
    for omega in (0.4, math.pi, 3 * math.pi / 2, 1.9 * math.pi):
        reflected = float(reflect_phase(omega))
        assert _literal_fold(omega) == (math.pi - reflected if reflected > math.pi / 2 else reflected)


def test_estimate_k_values():
    assert estimate_k(0.0, 7) == 0.0
    assert estimate_k(math.pi / 2, 5) == pytest.approx(5.0, abs=1e-12)
    assert estimate_k(math.pi / 4, 4) == pytest.approx(2.0, abs=1e-12)
    for omega in (0.3, 2.0, 4.0, 6.0):
        assert estimate_k(fold_phase(omega), 7) == 7 * np.sin(_literal_fold(omega)) ** 2


def _literal_fold(omega: float) -> float:
    # The scalar folding rules, kept as the reference for the elementwise form.
    if math.pi < omega < TWO_PI:
        omega = TWO_PI - omega
    return math.pi - omega if omega > math.pi / 2.0 else omega


@pytest.mark.parametrize("p", range(1, 15))
def test_elementwise_fold_matches_literal_fold(p):
    omegas = TWO_PI * np.arange(2**p) / 2**p
    folded = fold_phase(omegas)
    assert folded.tolist() == [_literal_fold(w) for w in omegas.tolist()]
    reflected = reflect_phase(omegas).tolist()
    assert reflected == [TWO_PI - w if math.pi < w < TWO_PI else w for w in omegas.tolist()]
    for n in (1, 7, 37):
        # np.sin may round differently from math.sin in the last bit.
        literal = np.array([n * math.sin(t) ** 2 for t in folded.tolist()])
        assert np.abs(estimate_k(folded, n) - literal).max() <= 4 * np.finfo(float).eps * n


K88 = BipartiteInstance.from_counts(8, 8, 3, 5)
K57 = BipartiteInstance.from_counts(5, 7, 2, 3)


@pytest.mark.parametrize("p", range(1, 21))
def test_mirror_outcomes_are_bit_equal(p):
    # Grid indices that fold to the same phase in exact arithmetic get the
    # same bits: m, P - m, P/2 - m and P/2 + m for the walk, m and P - m for
    # the baseline.  So the walk has P/4 + 1 distinct estimates, Grover P/2 + 1.
    size = 2**p
    m = np.arange(size)
    walk, grover = partial_count(p, K88, 0), grover_count(p, 16, 8)
    for mirror in ((size - m) % size, (size // 2 - m) % size, (size // 2 + m) % size):
        assert np.array_equal(walk.theta_est[mirror], walk.theta_est)
        assert np.array_equal(walk.k_est[mirror], walk.k_est)
    assert np.array_equal(grover.theta_est[(size - m) % size], grover.theta_est)
    assert np.array_equal(grover.k_est[(size - m) % size], grover.k_est)
    if p >= 2:
        assert np.unique(walk.k_est).size == size // 4 + 1
    assert np.unique(grover.k_est).size == size // 2 + 1


@pytest.mark.parametrize("p", range(1, 17))
def test_index_fold_matches_float_reference(p):
    eps = np.finfo(float).eps
    for part, n in ((0, 5), (1, 7)):
        walk = partial_count(p, K57, part)
        reference = fold_phase(walk.omega)
        assert np.abs(walk.theta_est - reference).max() <= 2 * np.spacing(math.pi)
        assert np.abs(walk.k_est - estimate_k(reference, n)).max() <= 4 * eps * n
    grover = grover_count(p, 16, 4)
    reference = reflect_phase(grover.omega)
    assert np.abs(grover.theta_est - reference).max() <= 2 * np.spacing(math.pi)
    assert np.abs(grover.k_est - estimate_k(reference / 2.0, 16)).max() <= 4 * eps * 16


@pytest.mark.parametrize("p", [4, 10, 16, 20])
def test_k_est_matches_mpmath(p):
    # k = n sin²(2πm/P) for the walk and n sin²(πm/P) for the baseline, at
    # 50 digits.  sin² is invariant under the folds, so the grid index m
    # needs no folding here.  Large registers check a seeded sample of m.
    mpmath = pytest.importorskip("mpmath")
    size = 2**p
    indices = np.arange(size)
    if size > 1024:
        edges = [0, 1, size // 8, size // 4, size // 2, 3 * size // 4, size - 1]
        indices = np.unique(np.concatenate((np.random.default_rng(p).integers(0, size, 2048), edges)))
    walk, grover = partial_count(p, K88, 0), grover_count(p, 16, 4)
    tol = 4 * np.finfo(float).eps
    with mpmath.workdps(50):
        for m in indices.tolist():
            turn = mpmath.mpf(m) / size
            assert abs(mpmath.mpf(float(walk.k_est[m])) - 8 * mpmath.sin(2 * mpmath.pi * turn) ** 2) <= tol * 8
            assert abs(mpmath.mpf(float(grover.k_est[m])) - 16 * mpmath.sin(mpmath.pi * turn) ** 2) <= tol * 16


def test_partial_bound_values():
    # Direct evaluation of the bound formula.
    assert partial_count_error_bound(0, 5, 16) == pytest.approx(math.pi**2 * 5 / 256, abs=1e-15)
    assert partial_count_error_bound(2, 4, 8) == pytest.approx(2.1876466018629817, abs=1e-12)
    assert partial_count_error_bound(1, 3, 64) == pytest.approx(0.14606880597840305, abs=1e-12)


def test_full_bound_is_sum_of_part_bounds():
    value = full_count_error_bound(2, 4, 1, 3, 64)
    assert value == partial_count_error_bound(2, 4, 64) + partial_count_error_bound(1, 3, 64)
    assert value == pytest.approx(0.35205663237570395, abs=1e-12)
    closed_form = TWO_PI / 64 * (2 + math.sqrt(2)) + 7 * math.pi**2 / 4096
    assert value == pytest.approx(closed_form, abs=1e-12)


def test_adjusted_bound_is_nominal_at_half_grid():
    for k, n, p in ((3, 7, 5), (1, 4, 6), (2, 8, 4)):
        adjusted = adjusted_partial_count_error_bound(k, n, 2**p)
        assert adjusted == pytest.approx(partial_count_error_bound(k, n, 2**(p - 1)), abs=1e-12)
        # The literal adjusted formula, bit for bit.
        spread = math.sqrt(k * (n - k))
        assert adjusted == 2.0 * TWO_PI * spread / 2**p + 4.0 * math.pi**2 * n / (2**p) ** 2
    assert adjusted_full_count_error_bound(2, 4, 1, 3, 64) == pytest.approx(
        adjusted_partial_count_error_bound(2, 4, 64) + adjusted_partial_count_error_bound(1, 3, 64), abs=0)


def test_grover_bound_values():
    # The unstructured-search baseline uses the single-part radius.
    assert partial_count_error_bound(16, 16, 64) == pytest.approx(math.pi**2 * 16 / 4096, abs=1e-15)
    assert partial_count_error_bound(4, 16, 64) == pytest.approx(0.718727903779587, abs=1e-12)
    # The spread term peaks at half marking.
    bounds = [partial_count_error_bound(k, 16, 64) for k in range(17)]
    assert max(bounds) == bounds[8]


def test_bounds_reject_bad_grid():
    with pytest.raises(ValueError):
        partial_count_error_bound(1, 2, 0)
    for adjusted in (lambda g: adjusted_partial_count_error_bound(1, 2, g),
                     lambda g: adjusted_full_count_error_bound(1, 2, 0, 3, g)):
        with pytest.raises(ValueError):
            adjusted(0)
    # A one-point register is valid: the adjusted radius evaluates the nominal one at 1/2.
    assert adjusted_partial_count_error_bound(1, 2, 1) == partial_count_error_bound(1, 2, 0.5)


def test_single_part_instance():
    # The conftest reference for the part-restricted walk.
    eff = single_part_instance(FIG2, 0)
    assert eff.marked0 == FIG2.marked0 and eff.marked1 == frozenset()
    eff = single_part_instance(FIG2, 1)
    assert eff.marked0 == frozenset() and eff.marked1 == FIG2.marked1
    with pytest.raises(ValueError):
        single_part_instance(FIG2, 2)


PART_CASES = [(n, k) for n in range(1, 9) for k in range(n + 1)]


@pytest.mark.parametrize("p", range(1, 13))
def test_part_distribution_depends_only_on_the_part_case(p):
    # Part 0 of K_{n,m} and part 1 of K_{m,n} are one run on (n, k, p): the
    # same bits, whatever size and marks the other part has.
    for n, k in PART_CASES:
        reference = partial_count(p, BipartiteInstance.from_counts(n, 1, k, 0), 0)
        for m in range(1, 9):
            other = (k + m + p) % (m + 1)
            for dist in (partial_count(p, BipartiteInstance.from_counts(n, m, k, other), 0),
                         partial_count(p, BipartiteInstance.from_counts(m, n, other, k), 1)):
                for name in ("omega", "theta_est", "k_est", "mass"):
                    assert getattr(dist, name).tobytes() == getattr(reference, name).tobytes(), (
                        n, k, m, dist.part, name)


@pytest.mark.parametrize("p", range(1, 13))
def test_part_count_matches_part_restricted_walk(p):
    # Part 0 is the pushforward of the walk with part 1 unmarked, bit for bit.
    # Part 1 puts its angle in the other slot of the closed form, so its
    # masses agree only to rounding, which grows with P like the kernel's
    # (measured worst: P·eps/4 at p = 1, under P·eps/10 from p = 5).
    for inst in random_instances(30, 8, seed=p):
        for part in (0, 1):
            walk = exact_distribution(
                eigenphase_table(angles_from_instance(single_part_instance(inst, part))), p)
            mass = partial_count(p, inst, part).mass
            if part == 0:
                assert mass.tobytes() == walk.mass.tobytes()
            else:
                assert np.abs(mass - walk.mass).max() <= 2**p * np.finfo(float).eps


def test_partial_count_certainty_on_grid():
    # Half marking of a 4-vertex part puts the estimated phase on the 8-point grid.
    inst = BipartiteInstance.from_counts(4, 3, 2, 0)
    dist = partial_count(3, inst, 0)
    assert isinstance(dist, CountDistribution)
    assert dist.mass_within(1e-9) == pytest.approx(1.0, abs=1e-9)


def test_partial_count_unmarked_part():
    dist = partial_count(4, BipartiteInstance.from_counts(5, 5, 0, 3), 0)
    assert dist.k_true == 0
    assert dist.mass_within(1e-12) == pytest.approx(1.0, abs=1e-12)


def test_partial_count_metadata():
    dist = partial_count(6, FIG2, 1)
    assert dist.part == 1 and dist.n_target == 3 and dist.k_true == 1
    assert dist.oracle_queries == 63
    assert dist.bound == partial_count_error_bound(1, 3, 64)
    assert dist.mass.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.array_equal(dist.omega, TWO_PI * np.arange(64) / 64)
    assert ((0.0 <= dist.theta_est) & (dist.theta_est <= math.pi / 2)).all()
    assert all(abs(k - 3 * math.sin(t) ** 2) < 1e-15
               for k, t in zip(dist.k_est.tolist(), dist.theta_est.tolist()))
    for name in ("omega", "theta_est", "k_est", "mass"):
        values = getattr(dist, name)
        assert values.dtype == np.float64 and values.shape == (64,)
        with pytest.raises(ValueError):
            values[0] = 0.0


def test_partial_count_matches_circuit_pushforward():
    # Independent route: simulate the circuit on the full arc space with the
    # part-restricted oracle, fold every outcome, and accumulate masses.
    from qwcount import build_evolution, build_part_oracle, uniform_state

    inst = BipartiteInstance.from_counts(1, 7, 0, 3)
    p = 5
    circuit = circuit_distribution(
        build_evolution(inst, build_part_oracle(inst, 1)), uniform_state(inst), p)
    pipeline = partial_count(p, inst, 1)
    assert np.abs(pipeline.mass - circuit.mass).max() < 1e-12
    bound = pipeline.bound
    reference = sum(
        float(mass) for omega, mass in zip(circuit.omegas(), circuit.mass)
        if abs(7 * math.sin(fold_phase(float(omega)))**2 - 3) <= bound)
    assert pipeline.mass_within(bound) == pytest.approx(reference, abs=1e-12)


def test_partial_count_fig2_exact_masses():
    # Frozen exact values: the nominal-radius mass at p = 6 sits BELOW the
    # 8/pi^2 target (the nominal radius undercounts the half-angle precision
    # loss), while the adjusted radius reaches it.
    dist = partial_count(6, FIG2, 1)
    nominal = dist.mass_within(dist.bound)
    assert nominal == pytest.approx(0.783972279908742, abs=1e-12)
    assert nominal < GOOD_ESTIMATE_PROBABILITY
    adjusted = dist.mass_within(adjusted_partial_count_error_bound(1, 3, 64))
    assert adjusted >= GOOD_ESTIMATE_PROBABILITY - 1e-9


@pytest.mark.parametrize("p", [4, 5, 6])
def test_partial_count_adjusted_bound_mass(p):
    # The provable radius meets the good-estimate probability on every
    # single-part instance up to part size 8.
    for n in range(1, 9):
        for k in range(n + 1):
            for part in (0, 1):
                inst = BipartiteInstance.from_counts(
                    n if part == 0 else 1, n if part == 1 else 1,
                    k if part == 0 else 0, k if part == 1 else 0)
                dist = partial_count(p, inst, part)
                radius = adjusted_partial_count_error_bound(k, n, 2**p)
                assert dist.mass_within(radius) >= GOOD_ESTIMATE_PROBABILITY - 1e-9, (n, k, p, part)


def test_partial_count_validation():
    with pytest.raises(ValueError):
        partial_count(0, FIG2, 0)
    with pytest.raises(ValueError):
        partial_count(4, FIG2, 2)
    with pytest.raises(ValueError):
        partial_count(4, FIG2, 0, "sampled")
    with pytest.raises(ValueError):
        partial_count(4, FIG2, 0, "bogus")


def test_full_count_unmarked_certainty():
    joint = full_count(4, BipartiteInstance(3, 4))
    assert isinstance(joint, FullCountDistribution)
    assert joint.mass_within(1e-12) == pytest.approx(1.0, abs=1e-12)


def test_full_count_double_grid_certainty():
    # Both half-angles on the 8-point grid: the total is exact.
    inst = BipartiteInstance(4, 4, frozenset({0, 1}), frozenset({2, 3}))
    joint = full_count(3, inst)
    assert joint.mass_within(1e-9) == pytest.approx(1.0, abs=1e-9)


def test_full_count_fig2():
    joint = full_count(6, FIG2)
    assert joint.oracle_queries == 126
    assert joint.bound == full_count_error_bound(2, 4, 1, 3, 64)
    mass = joint.mass_within(joint.bound)
    assert mass == pytest.approx(0.9271435011444529, abs=1e-12)
    assert mass >= 0.65


def test_full_count_product_structure():
    joint = full_count(4, FIG2)
    # Joint mass of the sure event is the product of two sure events.
    assert joint.mass_within(100.0) == pytest.approx(1.0, abs=1e-10)
    # Containment: total radius covers the intersection of part events.
    m0 = joint.part0.mass_within(joint.part0.bound)
    m1 = joint.part1.mass_within(joint.part1.bound)
    assert joint.mass_within(joint.bound) >= m0 * m1 - 1e-12


def test_permutation_invariance_bitwise():
    relabeled = BipartiteInstance(4, 3, frozenset({0, 2}), frozenset({0}))
    a, b = full_count(5, FIG2), full_count(5, relabeled)
    for part_a, part_b in ((a.part0, b.part0), (a.part1, b.part1)):
        assert np.array_equal(part_a.mass, part_b.mass)
        assert np.array_equal(part_a.k_est, part_b.k_est)
    assert a.bound == b.bound


def test_sampled_partial_count():
    estimate = partial_count(5, FIG2, 0, "sampled", seed=123)
    assert isinstance(estimate, CountEstimate)
    assert estimate.seed == 123
    assert estimate.oracle_queries == 31
    assert 0.0 <= estimate.k_est <= 4.0
    assert estimate.k_est == pytest.approx(estimate_k(estimate.theta_est, 4), abs=1e-15)
    assert estimate.k_rounded == round(estimate.k_est)
    again = partial_count(5, FIG2, 0, "sampled", seed=123)
    assert again == estimate


def test_sampled_full_count():
    estimate = full_count(5, FIG2, "sampled", seed=7)
    assert isinstance(estimate, FullCountEstimate)
    assert estimate.k_est == estimate.part0.k_est + estimate.part1.k_est
    assert estimate.oracle_queries == 62
    assert full_count(5, FIG2, "sampled", seed=7) == estimate


def test_sampled_mode_draws_from_the_exact_distribution():
    # Sampled mode is one draw from the exact pushforward with default_rng(seed).
    for seed in (0, 7, 123):
        joint = full_count(5, FIG2)
        assert full_count(5, FIG2, "sampled", seed=seed) == replace(
            joint.draw(np.random.default_rng(seed)), seed=seed)
        assert partial_count(5, FIG2, 1, "sampled", seed=seed) == replace(
            joint.part1.draw(np.random.default_rng(seed)), seed=seed)
        assert grover_count(5, 16, 4, "sampled", seed=seed) == replace(
            grover_count(5, 16, 4).draw(np.random.default_rng(seed)), seed=seed)
    dist = partial_count(4, FIG2, 0)
    rng = np.random.default_rng(1)
    counts = {}
    for _ in range(4000):
        k = dist.draw(rng).k_est
        counts[k] = counts.get(k, 0) + 1
    for k, count in counts.items():
        assert count / 4000 == pytest.approx(dist.mass[dist.k_est == k].sum(), abs=0.03)


def test_draws_accumulate_the_mass_once(monkeypatch):
    # T draws run np.cumsum once per part distribution, and each draw still
    # takes one rng.random(), so sampled runs keep their outcomes.
    joint = full_count(6, FIG2)
    cumulative = [np.cumsum(joint.part0.mass), np.cumsum(joint.part1.mass)]
    calls = []
    cumsum = np.cumsum
    monkeypatch.setattr(np, "cumsum", lambda *args, **kwargs: calls.append(1) or cumsum(*args, **kwargs))
    rng, reference = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(200):
        total = joint.draw(rng)
        for pick, part, acc in ((total.part0, joint.part0, cumulative[0]),
                                (total.part1, joint.part1, cumulative[1])):
            index = min(int(np.searchsorted(acc, reference.random(), side="right")), acc.size - 1)
            assert pick.k_est == part.k_est[index]
    assert len(calls) == 2


def test_rounding_is_half_to_even():
    assert round(2.5) == 2 and round(3.5) == 4


def test_grover_mixture_weights():
    mixture = grover_mixture(4, 1)
    assert mixture.phases[0] == pytest.approx(math.pi / 3, abs=1e-12)
    assert np.array_equal(mixture.weights, [0.5, 0.5])
    with pytest.raises(ValueError):
        grover_mixture(4, 5)


def test_grover_count_trivial_cases():
    dist = grover_count(4, 8, 0)
    assert dist.k_true == 0
    assert dist.mass_within(1e-12) == pytest.approx(1.0, abs=1e-12)
    dist = grover_count(4, 8, 8)
    assert dist.k_true == 8
    assert dist.mass_within(1e-9) == pytest.approx(1.0, abs=1e-9)


def test_grover_count_on_grid_certainty():
    # Half marking gives phase pi/2, on every grid with p >= 2.
    dist = grover_count(5, 16, 8)
    assert dist.mass_within(1e-9) == pytest.approx(1.0, abs=1e-9)


def test_grover_count_bound_mass():
    dist = grover_count(6, 16, 4)
    assert dist.part is None
    assert dist.bound == partial_count_error_bound(4, 16, 64)
    assert dist.mass_within(dist.bound) >= GOOD_ESTIMATE_PROBABILITY - 1e-9
    assert dist.oracle_queries == 63


@pytest.mark.parametrize("n,k,p", [(16, 4, 4), (8, 3, 5), (4, 1, 6)])
def test_grover_count_matches_operator_circuit(n, k, p):
    # Independent oracle: build the search operator (2|d><d| - I) R directly
    # and push the literal circuit outcomes through the same fold.
    dvec = np.full(n, 1 / math.sqrt(n))
    reflection = np.eye(n)
    reflection[:k, :k] -= 2 * np.eye(k)
    operator = (2 * np.outer(dvec, dvec) - np.eye(n)) @ reflection
    circuit = circuit_distribution(operator, dvec.astype(complex), p)
    analytic = exact_distribution(grover_mixture(n, k), p)
    assert total_variation(analytic, circuit) < 1e-8
    pipeline = grover_count(p, n, k)
    assert np.abs(pipeline.mass - analytic.mass).max() < 1e-14


def test_grover_count_validation():
    with pytest.raises(ValueError):
        grover_count(4, 4, 5)
    with pytest.raises(ValueError):
        grover_count(4, 0, 0)
    with pytest.raises(ValueError):
        grover_count(4, 8, 1, "sampled")


def test_grover_sampled_determinism():
    first = grover_count(5, 16, 4, "sampled", seed=99)
    second = grover_count(5, 16, 4, "sampled", seed=99)
    assert first == second


@pytest.mark.parametrize("inst", list(iter_count_instances(4)))
def test_partial_masses_normalized(inst):
    for part in (0, 1):
        dist = partial_count(4, inst, part)
        assert dist.mass.sum() == pytest.approx(1.0, abs=1e-10)


def _pairwise_joint_mass(joint, radius):
    # The literal P x P sum over outcome pairs: reference for the sorted path.
    totals = joint.part0.k_est[:, None] + joint.part1.k_est[None, :]
    pair_mass = joint.part0.mass[:, None] * joint.part1.mass[None, :]
    return float(pair_mass[np.abs(totals - float(joint.k_true)) <= radius].sum())


@pytest.mark.parametrize("p", range(1, 10))
def test_joint_mass_matches_pairwise_sum(p):
    # Every part case with n <= 8 up to p = 6, a spread of them above, where
    # the literal sum over P² pairs gets costly.  Part distributions depend
    # on (n_j, k_j, p) only.
    sizes = PART_CASES if p <= 6 else [(1, 0), (1, 1), (3, 1), (5, 2), (6, 3), (7, 7), (8, 3)]
    part0 = {(n, k): partial_count(p, BipartiteInstance.from_counts(n, 1, k, 0), 0) for n, k in sizes}
    part1 = {(n, k): partial_count(p, BipartiteInstance.from_counts(1, n, 0, k), 1) for n, k in sizes}
    threshold = 0.65 - 1e-9
    for n0, k0 in sizes:
        for n1, k1 in sizes:
            joint = FullCountDistribution(
                p=p, k_true=k0 + k1, bound=full_count_error_bound(k0, n0, k1, n1, 2**p),
                oracle_queries=2 * (2**p - 1), part0=part0[n0, k0], part1=part1[n1, k1])
            i, j = int(joint.part0.mass.argmax()), int(joint.part1.mass.argmax())
            tie = abs((joint.part0.k_est[i] + joint.part1.k_est[j]) - joint.k_true)
            adjusted = adjusted_full_count_error_bound(k0, n0, k1, n1, 2**p)
            for radius in (joint.bound, adjusted, 0.0, tie):
                fast, literal = joint.mass_within(radius), _pairwise_joint_mass(joint, radius)
                assert abs(fast - literal) <= 1e-14, (n0, k0, n1, k1, radius)
                assert (fast >= threshold) == (literal >= threshold)


def test_joint_mass_edge_radii():
    # Centers away from the true count are the same distributions with k_true replaced.
    joint = full_count(6, BipartiteInstance.from_counts(8, 8, 3, 5))
    for radius, center in ((math.inf, 8), (-1.0, 8), (1e300, 8), (3.0, -5),
                           (3.0, 10**6), (3.0, 0), (1e-9, 8), (math.nan, 8)):
        shifted = replace(joint, k_true=center)
        expected = _pairwise_joint_mass(shifted, radius)
        assert shifted.mass_within(radius) == pytest.approx(expected, abs=1e-14)
    # At p = 2 every k_est is 0 or n, so runs of equal values sit on each edge.
    joint = full_count(2, BipartiteInstance.from_counts(4, 4, 2, 2))
    assert set(joint.part0.k_est.tolist()) == {0.0, 4.0}
    for radius in (0.0, 4.0, 8.0):
        for center in (0, 4, 8):
            shifted = replace(joint, k_true=center)
            assert shifted.mass_within(radius) == pytest.approx(
                _pairwise_joint_mass(shifted, radius), abs=1e-15)


def test_joint_mass_nan_radius_is_zero():
    # NaN fails every comparison, so the event is empty at any register size.
    joint = full_count(16, BipartiteInstance.from_counts(8, 8, 3, 5))
    assert joint.mass_within(math.nan) == 0.0
    assert joint.part0.mass_within(math.nan) == 0.0


def test_joint_mass_memory_stays_linear():
    # The P x P path allocated several 128 MiB arrays at p = 12.
    inst = BipartiteInstance.from_counts(8, 8, 3, 5)
    tracemalloc.start()
    try:
        joint = full_count(12, inst)
        mass = joint.mass_within(joint.bound)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert mass >= 0.65
