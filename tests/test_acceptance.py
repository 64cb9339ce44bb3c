"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 7 and 8 assert the counting error bound at the radius the walk
estimator guarantees.  The Brassard-Hoyer-Mosca-Tapp bound
``|k~ - k| <= 2 pi sqrt(k(n-k))/M + pi^2 n/M^2`` holds with probability
8/pi^2 when ``M`` sets the grid spacing ``pi/M`` of the angle whose sin^2 is
``k/n``.  Here that angle is the walk eigenphase ``theta_j/2`` itself, so a
P-point register gives it the spacing ``2 pi/P``: ``M = P/2``.  Both criteria
therefore measure mass within the nominal formula at ``P/2``
(``adjusted_partial_count_error_bound`` and ``adjusted_full_count_error_bound``).
The nominal radius (``M = P``), which the ``bound`` fields report, is missed
on some instances; criterion 7 asserts one such miss on the literal circuit
engine, and both criteria print the nominal miss count as a report.
"""

import itertools
import math
import subprocess
import sys

import numpy as np

from qwcount import (
    BipartiteInstance,
    GOOD_ESTIMATE_PROBABILITY,
    WalkAngles,
    adjusted_full_count_error_bound,
    adjusted_partial_count_error_bound,
    angles_from_instance,
    build_ancilla_oracle,
    build_coin,
    build_evolution,
    build_oracle,
    build_part_oracle,
    build_reduced_evolution,
    build_shift,
    circuit_distribution,
    eigen_residual,
    eigenphase_table,
    exact_distribution,
    fourier_kernel,
    full_count,
    good_estimate_mass,
    grover_count,
    invariant_basis,
    partial_count,
    partial_count_error_bound,
    reduce_operator,
    restrict_to_plus_ancilla,
    sample,
    spectral_decomposition,
    total_variation,
    uniform_state,
    unitarity_defect,
)

from conftest import estimate_k, fold_phase

TWO_PI = 2 * math.pi

FIG2 = BipartiteInstance(4, 3, frozenset({1, 3}), frozenset({1}))
K57 = BipartiteInstance(5, 7, frozenset({0, 2, 4}), frozenset({1, 5}))

# Mid-cell two-neighbor mass at P = 8, evaluated directly from the kernel
# closed form: 2 / (64 sin^2(pi/16)).
MIDPOINT_GOOD_MASS_P8 = 0.8210669490340058


def report(number, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


def all_subset_instances(n_max):
    for n0 in range(1, n_max + 1):
        for n1 in range(1, n_max + 1):
            vertices0 = list(range(n0))
            vertices1 = list(range(n1))
            for size0 in range(n0 + 1):
                for marked0 in itertools.combinations(vertices0, size0):
                    for size1 in range(n1 + 1):
                        for marked1 in itertools.combinations(vertices1, size1):
                            yield BipartiteInstance(n0, n1, frozenset(marked0), frozenset(marked1))


def test_criterion_01_structural_identities():
    worst_defect = 0.0
    worst_involution = 0.0
    for inst in (FIG2, K57):
        shift, coin = build_shift(inst), build_coin(inst)
        oracle = build_oracle(inst)
        operators = [shift, coin, oracle,
                     build_part_oracle(inst, 0), build_part_oracle(inst, 1),
                     build_ancilla_oracle(inst, 0), build_ancilla_oracle(inst, 1),
                     build_evolution(inst, oracle)]
        worst_defect = max(worst_defect, max(unitarity_defect(op) for op in operators))
        eye = np.eye(inst.dim)
        for op in (shift, oracle, coin):
            worst_involution = max(worst_involution, float(np.abs(op @ op - eye).max()))
    ok = worst_defect < 1e-10 and worst_involution < 1e-12
    report(1, "structural identities", ok,
           f"max unitarity defect {worst_defect:.2e}, max involution defect {worst_involution:.2e}")


def test_criterion_02_invariant_subspace():
    worst_leakage = 0.0
    worst_mismatch = 0.0
    count = 0
    for inst in all_subset_instances(5):
        basis = invariant_basis(inst)
        projected, leakage = reduce_operator(build_evolution(inst, build_oracle(inst)), basis)
        present = basis.present_indices()
        analytic = build_reduced_evolution(angles_from_instance(inst))[np.ix_(present, present)]
        worst_leakage = max(worst_leakage, leakage)
        worst_mismatch = max(worst_mismatch, float(np.abs(projected - analytic).max()))
        count += 1
    ok = worst_leakage < 1e-10 and worst_mismatch < 1e-10
    report(2, "invariant subspace reduction", ok,
           f"{count} marked configurations, max leakage {worst_leakage:.2e}, "
           f"max reconciliation error {worst_mismatch:.2e}")


def _random_angle_grid(count, seed):
    rng = np.random.default_rng(seed)
    return [WalkAngles.from_thetas(float(t0), float(t1))
            for t0, t1 in rng.uniform(0.0, math.pi, (count, 2))]


def test_criterion_03_spectral_closed_forms():
    worst_residual = 0.0
    worst_gram = 0.0
    for angles in _random_angle_grid(100, seed=2026):
        reduced = build_reduced_evolution(angles)
        decomposition = spectral_decomposition(angles)
        for record in decomposition.records:
            worst_residual = max(worst_residual,
                                 eigen_residual(reduced, record.eigenvalue, record.eigenvector))
        vectors = np.column_stack([r.eigenvector for r in decomposition.records])
        worst_gram = max(worst_gram, float(np.abs(vectors.conj().T @ vectors - np.eye(8)).max()))
    ok = worst_residual < 1e-12 and worst_gram < 1e-12
    report(3, "spectral closed forms", ok,
           f"max residual {worst_residual:.2e}, max Gram defect {worst_gram:.2e}")


def test_criterion_04_overlap_closed_forms():
    worst_dev = 0.0
    worst_sum = 0.0
    for angles in _random_angle_grid(100, seed=2027):
        decomposition = spectral_decomposition(angles)
        cos_mu, cos_sigma = math.cos(angles.mu), math.cos(angles.sigma)
        expected = np.array([
            math.cos(angles.sigma / 2) ** 2 / 4, math.sin(angles.sigma / 2) ** 2 / 4,
            math.cos(angles.sigma / 2) ** 2 / 4, math.sin(angles.sigma / 2) ** 2 / 4,
            math.cos(angles.mu / 2) ** 2 / 4, math.sin(angles.mu / 2) ** 2 / 4,
            math.cos(angles.mu / 2) ** 2 / 4, math.sin(angles.mu / 2) ** 2 / 4,
        ])
        overlaps = decomposition.overlaps()
        worst_dev = max(worst_dev, float(np.abs(overlaps - expected).max()))
        worst_sum = max(worst_sum, abs(float(overlaps.sum()) - 1.0))
        assert abs((1 + cos_sigma) / 8 - expected[0]) < 1e-15
    ok = worst_dev < 1e-12 and worst_sum < 1e-12
    report(4, "initial-state overlap table", ok,
           f"max deviation {worst_dev:.2e}, max sum error {worst_sum:.2e}")


def test_criterion_05_engine_agreement():
    rng = np.random.default_rng(2028)
    instances = [FIG2]
    while len(instances) < 11:
        n0, n1 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        marked0 = frozenset(int(v) for v in rng.choice(n0, size=int(rng.integers(0, n0 + 1)), replace=False))
        marked1 = frozenset(int(v) for v in rng.choice(n1, size=int(rng.integers(0, n1 + 1)), replace=False))
        instances.append(BipartiteInstance(n0, n1, marked0, marked1))
    worst_tv = 0.0
    for inst in instances:
        evolution = build_evolution(inst, build_oracle(inst))
        state = uniform_state(inst)
        mixture = eigenphase_table(angles_from_instance(inst))
        for p in (3, 4, 5, 6):
            tv = total_variation(exact_distribution(mixture, p),
                                 circuit_distribution(evolution, state, p))
            worst_tv = max(worst_tv, tv)
    worst_norm = 0.0
    for p in range(1, 11):
        for theta in rng.uniform(0.0, TWO_PI, 3):
            total = sum(fourier_kernel(float(theta), TWO_PI * m / 2**p, 2**p) for m in range(2**p))
            worst_norm = max(worst_norm, abs(total - 1.0))
    ok = worst_tv < 1e-8 and worst_norm < 1e-10
    report(5, "analytic vs circuit engines", ok,
           f"11 instances, max TV {worst_tv:.2e}, max kernel normalization error {worst_norm:.2e}")


def test_criterion_06_good_estimate_bound():
    thetas = np.linspace(0.0, TWO_PI, 10_000, endpoint=False)
    masses = np.array([good_estimate_mass(float(t), 5) for t in thetas])
    minimum = float(masses.min())
    midpoint = good_estimate_mass(TWO_PI * 2.5 / 8, 3)
    ok = (minimum >= GOOD_ESTIMATE_PROBABILITY - 1e-12
          and abs(midpoint - MIDPOINT_GOOD_MASS_P8) < 1e-6)
    report(6, "good-estimate probability bound", ok,
           f"grid minimum {minimum:.12f} vs 8/pi^2 = {GOOD_ESTIMATE_PROBABILITY:.12f}, "
           f"midpoint mass {midpoint:.8f}")


def _single_part_instances(n_max):
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            yield BipartiteInstance.from_counts(n, 1, k, 0), 0, k, n
            yield BipartiteInstance.from_counts(1, n, 0, k), 1, k, n


def test_criterion_07_single_part_bound_mass():
    # Certainty clause: a half-marked 4-vertex part puts the estimated phase
    # on the 8-point grid.
    certainty = partial_count(3, BipartiteInstance.from_counts(4, 3, 2, 0), 0)
    certainty_ok = certainty.mass_within(1e-9) >= 1.0 - 1e-9

    # The nominal radius (M = P) is missed, on the literal circuit engine and
    # independently of the analytic pipeline below: part 0, n = 4, k = 1, p = 4
    # has nominal-radius mass 0.7065 < 8/pi^2.
    inst = BipartiteInstance.from_counts(4, 1, 1, 0)
    circuit = circuit_distribution(
        build_evolution(inst, build_part_oracle(inst, 0)), uniform_state(inst), 4)
    errors = np.array([abs(estimate_k(fold_phase(float(omega)), 4) - 1)
                       for omega in circuit.omegas()])
    circuit_nominal = float(circuit.mass[errors <= partial_count_error_bound(1, 4, 16)].sum())
    circuit_adjusted = float(circuit.mass[errors <= adjusted_partial_count_error_bound(1, 4, 16)].sum())
    finding_ok = (circuit_nominal < GOOD_ESTIMATE_PROBABILITY
                  and circuit_adjusted >= GOOD_ESTIMATE_PROBABILITY - 1e-9)

    violations = []
    nominal_misses = 0
    worst_nominal = worst = 1.0
    for p in (4, 5, 6):
        for inst, part, k, n in _single_part_instances(8):
            dist = partial_count(p, inst, part)
            nominal = dist.mass_within(dist.bound)
            nominal_misses += nominal < GOOD_ESTIMATE_PROBABILITY - 1e-9
            worst_nominal = min(worst_nominal, nominal)
            mass = dist.mass_within(adjusted_partial_count_error_bound(k, n, 2**p))
            worst = min(worst, mass)
            if mass < GOOD_ESTIMATE_PROBABILITY - 1e-9:
                violations.append((part, n, k, p, round(mass, 4)))
    ok = certainty_ok and finding_ok and not violations
    detail = (f"certainty clause {'holds' if certainty_ok else 'fails'}; "
              f"worst half-angle-radius mass {worst:.6f}; circuit counterexample "
              f"(part 0, n=4, k=1, p=4) nominal {circuit_nominal:.6f}, half-angle {circuit_adjusted:.6f}; "
              f"nominal radius missed at {nominal_misses} grid points, worst {worst_nominal:.6f}")
    if violations:
        detail += (f"; half-angle-radius mass below 8/pi^2 at {len(violations)} grid points, "
                   f"e.g. (part, n_j, k_j, p, mass) = {violations[:4]}")
    report(7, "single-part count error bound", ok, detail)


def test_criterion_08_total_count_bound_mass():
    violations = []
    queries_ok = True
    nominal_misses = 0
    worst_nominal = worst = 1.0
    for n0 in range(1, 9):
        for n1 in range(1, 9):
            for k0 in range(n0 + 1):
                for k1 in range(n1 + 1):
                    inst = BipartiteInstance.from_counts(n0, n1, k0, k1)
                    for p in (4, 5, 6):
                        joint = full_count(p, inst)
                        queries_ok = queries_ok and joint.oracle_queries == 2 * 2**p - 2
                        nominal = joint.mass_within(joint.bound)
                        nominal_misses += nominal < 0.65 - 1e-9
                        worst_nominal = min(worst_nominal, nominal)
                        mass = joint.mass_within(adjusted_full_count_error_bound(k0, n0, k1, n1, 2**p))
                        worst = min(worst, mass)
                        if mass < 0.65 - 1e-9:
                            violations.append((n0, n1, k0, k1, p, round(mass, 4)))
    ok = queries_ok and not violations
    detail = (f"query accounting {'holds' if queries_ok else 'fails'}; "
              f"worst half-angle-radius mass {worst:.6f}; "
              f"nominal radius missed at {nominal_misses} grid points, worst {worst_nominal:.6f}")
    if violations:
        detail += (f"; half-angle-radius mass below 0.65 at {len(violations)} grid points, "
                   f"e.g. (n0, n1, k0, k1, p, mass) = {violations[:3]}")
    report(8, "total count error bound", ok, detail)


def test_criterion_09_unstructured_baseline():
    worst = 1.0
    certainty_ok = True
    for n in (4, 16, 64):
        for k in range(n + 1):
            for p in range(4, 9):
                dist = grover_count(p, n, k)
                mass = dist.mass_within(dist.bound)
                worst = min(worst, mass)
                theta = 2 * math.asin(math.sqrt(k / n))
                position = theta * 2**p / TWO_PI
                if abs(position - round(position)) < 1e-9:
                    certainty_ok = certainty_ok and dist.mass_within(1e-9) >= 1.0 - 1e-9
    ok = worst >= GOOD_ESTIMATE_PROBABILITY - 1e-9 and certainty_ok
    report(9, "unstructured-search baseline", ok,
           f"worst bound mass {worst:.6f}, on-grid certainty {'holds' if certainty_ok else 'fails'}")


def test_criterion_10_ancilla_circuit():
    worst = 0.0
    count = 0
    for inst in all_subset_instances(5):
        for part in (0, 1):
            restriction = restrict_to_plus_ancilla(build_ancilla_oracle(inst, part))
            deviation = float(np.abs(restriction - build_part_oracle(inst, part)).max())
            worst = max(worst, deviation)
            count += 1
    ok = worst < 1e-12
    report(10, "ancilla oracle circuit", ok,
           f"{count} restrictions checked, max deviation {worst:.2e}")


def test_criterion_11_reproducibility():
    argv = [sys.executable, "-m", "qwcount", "count", "--n0", "4", "--n1", "3",
            "--k0", "2", "--k1", "1", "--p", "6", "--mode", "sampled",
            "--trials", "50", "--seed", "20260811"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    bytes_ok = first.returncode == 0 and first.stdout == second.stdout

    dist = exact_distribution(eigenphase_table(angles_from_instance(FIG2)), 6)
    n = 100_000
    draws = sample(dist, seed=20260811, n=n)
    indices = np.rint(draws / (TWO_PI / dist.n_points)).astype(int) % dist.n_points
    frequencies = np.bincount(indices, minlength=dist.n_points) / n
    sigma = np.sqrt(dist.mass * (1 - dist.mass) / n)
    stats_ok = bool(np.all(np.abs(frequencies - dist.mass) <= 4 * sigma + 1e-15))
    ok = bytes_ok and stats_ok
    report(11, "seeded reproducibility", ok,
           f"byte-identical runs {'yes' if bytes_ok else 'no'}, "
           f"empirical frequencies within 4 sigma {'yes' if stats_ok else 'no'}")


def test_criterion_12_negative_control():
    base = [sys.executable, "-m", "qwcount", "verify", "--n0", "4", "--n1", "3",
            "--k0", "2", "--k1", "1", "--p", "5"]
    clean = subprocess.run(base, capture_output=True)
    corrupt = subprocess.run(base + ["--corrupt-oracle"], capture_output=True)
    ok = clean.returncode == 0 and corrupt.returncode == 2
    report(12, "negative control", ok,
           f"clean exit {clean.returncode}, corrupted exit {corrupt.returncode}")
