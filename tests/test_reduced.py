import math

import numpy as np
import pytest

from qwcount import (
    BASIS_LABELS,
    BipartiteInstance,
    WalkAngles,
    angles_from_instance,
    build_evolution,
    build_oracle,
    build_reduced_evolution,
    eigen_residual,
    eigenphase_table,
    invariant_basis,
    reduce_operator,
    reduced_uniform_state,
    spectral_decomposition,
    uniform_state,
    unitarity_defect,
)

from conftest import (
    ArcIndex,
    arc_to_flat,
    build_shift,
    iter_count_instances,
    kron_invariant_basis,
    random_instances,
)

FIG2 = BipartiteInstance(4, 3, frozenset({1, 3}), frozenset({1}))

# Direct evaluation of the angle formulas for the flagship instance.
FIG2_THETA0 = math.acos(0.0)
FIG2_THETA1 = math.acos(1.0 / 3.0)
FIG2_MU = (FIG2_THETA0 + FIG2_THETA1) / 2.0
FIG2_SIGMA = (FIG2_THETA0 - FIG2_THETA1) / 2.0


def random_angles(count, seed):
    rng = np.random.default_rng(seed)
    return [WalkAngles(float(t0), float(t1))
            for t0, t1 in rng.uniform(0.0, math.pi, (count, 2))]


def test_angles_unmarked():
    angles = angles_from_instance(BipartiteInstance(3, 5))
    assert angles.theta0 == angles.theta1 == angles.mu == angles.sigma == 0.0


def test_angles_half_marked():
    angles = angles_from_instance(BipartiteInstance.from_counts(4, 3, 2, 0))
    assert angles.theta0 == pytest.approx(math.pi / 2, abs=1e-15)


def test_angles_fig2():
    angles = angles_from_instance(FIG2)
    assert angles.theta1 == pytest.approx(1.2309594173407747, abs=1e-15)
    # Cross-check through the sine form of the angle definition.
    assert math.sin(angles.theta1) == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, abs=1e-12)
    assert angles.mu == pytest.approx(FIG2_MU, abs=1e-15)
    assert angles.sigma == pytest.approx(FIG2_SIGMA, abs=1e-15)


@pytest.mark.parametrize("inst", list(iter_count_instances(5)))
def test_angle_defining_identities(inst):
    angles = angles_from_instance(inst)
    assert math.cos(angles.theta0) == pytest.approx(1 - 2 * inst.k0 / inst.n0, abs=1e-12)
    assert math.sin(angles.theta0) == pytest.approx(
        2 / inst.n0 * math.sqrt(inst.k0 * (inst.n0 - inst.k0)), abs=1e-12)
    assert math.cos(angles.theta1) == pytest.approx(1 - 2 * inst.k1 / inst.n1, abs=1e-12)
    assert 0.0 <= angles.mu <= math.pi
    assert -math.pi / 2 <= angles.sigma <= math.pi / 2


def test_invariant_basis_fig2_marked_marked_vector():
    basis = invariant_basis(FIG2)
    vec = basis.vectors[0]  # tails {1,3} marked, head {1} marked: 2 arcs
    nonzero = np.flatnonzero(vec)
    assert len(nonzero) == 2
    assert np.abs(vec[nonzero] - 1 / math.sqrt(2)).max() < 1e-15


def test_invariant_basis_absent_labels():
    basis = invariant_basis(BipartiteInstance.from_counts(3, 4, 2, 0))
    absent = [label for label, vec in zip(basis.labels, basis.vectors) if vec is None]
    assert sorted(absent) == sorted([l for l in BASIS_LABELS if "K1," in l or l.endswith(",K1")])
    assert len(basis.present_indices()) == 4


def literal_invariant_basis(inst):
    """Reference: place each class amplitude arc by arc through the flat layout."""
    classes = {
        "K0": sorted(inst.marked0),
        "K0c": sorted(set(range(inst.n0)) - inst.marked0),
        "K1": sorted(inst.marked1),
        "K1c": sorted(set(range(inst.n1)) - inst.marked1),
    }
    vectors = []
    for label in BASIS_LABELS:
        tail, head = label.split(",")
        tails, heads = classes[tail], classes[head]
        if not tails or not heads:
            vectors.append(None)
            continue
        vec = np.zeros(inst.dim, dtype=np.complex128)
        amplitude = 1.0 / math.sqrt(len(tails) * len(heads))
        for t in tails:
            for h in heads:
                arc = ArcIndex(0, t, h) if tail.startswith("K0") else ArcIndex(1, h, t)
                vec[arc_to_flat(inst, arc)] = amplitude
        vectors.append(vec)
    return vectors


def test_invariant_basis_matches_literal_loop():
    for inst in list(iter_count_instances(8)) + random_instances(40, 8, seed=21):
        basis = invariant_basis(inst)
        assert basis.labels == BASIS_LABELS
        for got, want in zip(basis.vectors, literal_invariant_basis(inst), strict=True):
            assert (got is None) == (want is None)
            assert got is None or np.array_equal(got, want)


def test_invariant_basis_is_bit_equal_to_kron_reference():
    for inst in list(iter_count_instances(8)) + random_instances(40, 8, seed=22):
        for got, want in zip(invariant_basis(inst).vectors, kron_invariant_basis(inst), strict=True):
            assert (got is None) == (want is None)
            assert got is None or (got.dtype == want.dtype and got.tobytes() == want.tobytes())


@pytest.mark.parametrize("inst", list(iter_count_instances(4)) + random_instances(6, 6, seed=5))
def test_invariant_basis_is_orthonormal(inst):
    matrix = invariant_basis(inst).matrix()
    gram = matrix.conj().T @ matrix
    assert np.abs(gram - np.eye(matrix.shape[1])).max() < 1e-12


@pytest.mark.parametrize("inst", list(iter_count_instances(4)) + random_instances(6, 6, seed=6))
def test_uniform_state_expansion_in_basis(inst):
    # Projection of the uniform arc state onto each class vector equals
    # sqrt(class arc count / total arc count).
    basis = invariant_basis(inst)
    state = uniform_state(inst)
    reduced = reduced_uniform_state(angles_from_instance(inst))
    for index, vec in enumerate(basis.vectors):
        if vec is None:
            assert abs(reduced[index]) < 1e-15
            continue
        projection = np.vdot(vec, state)
        arcs = int(round(1.0 / np.abs(vec[np.flatnonzero(vec)][0]) ** 2))
        assert projection.real == pytest.approx(math.sqrt(arcs / inst.dim), abs=1e-12)
        assert projection == pytest.approx(reduced[index], abs=1e-12)


def test_reduced_evolution_zero_angles():
    reduced = build_reduced_evolution(WalkAngles(0.0, 0.0))
    block = np.array([[1, 0, 0, 0], [0, 0, -1, 0], [0, -1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    assert np.array_equal(reduced[:4, 4:], block)
    assert np.array_equal(reduced[4:, :4], block)


@pytest.mark.parametrize("angles", random_angles(25, seed=7))
def test_reduced_evolution_is_unitary(angles):
    assert unitarity_defect(build_reduced_evolution(angles)) < 1e-12


def test_reduce_operator_identity():
    basis = invariant_basis(FIG2)
    projected, leakage = reduce_operator(np.eye(FIG2.dim), basis)
    assert np.abs(projected - np.eye(8)).max() < 1e-14
    assert leakage < 1e-14


def test_reduce_operator_shift_permutation():
    # The shift swaps each class with its direction-reversed partner.
    projected, leakage = reduce_operator(build_shift(FIG2), invariant_basis(FIG2))
    expected = np.zeros((8, 8))
    for a, b in ((0, 4), (1, 6), (2, 5), (3, 7)):
        expected[a, b] = expected[b, a] = 1.0
    assert leakage < 1e-12
    assert np.abs(projected - expected).max() < 1e-12


def test_reduce_operator_dimension_mismatch():
    with pytest.raises(ValueError):
        reduce_operator(np.eye(10), invariant_basis(FIG2))


@pytest.mark.parametrize("inst", list(iter_count_instances(6)))
def test_reduction_matches_analytic_model(inst):
    # Invariance and reconciliation: the projected search step equals the
    # analytic reduced operator on the surviving coordinates, with no leakage.
    basis = invariant_basis(inst)
    evolution = build_evolution(inst, build_oracle(inst))
    projected, leakage = reduce_operator(evolution, basis)
    assert leakage < 1e-10
    present = basis.present_indices()
    analytic = build_reduced_evolution(angles_from_instance(inst))[np.ix_(present, present)]
    assert np.abs(projected - analytic).max() < 1e-10


@pytest.mark.parametrize("inst", random_instances(12, 6, seed=8))
def test_reduction_matches_analytic_model_random_marks(inst):
    basis = invariant_basis(inst)
    projected, leakage = reduce_operator(build_evolution(inst, build_oracle(inst)), basis)
    assert leakage < 1e-10
    present = basis.present_indices()
    analytic = build_reduced_evolution(angles_from_instance(inst))[np.ix_(present, present)]
    assert np.abs(projected - analytic).max() < 1e-10


def test_results_depend_only_on_counts():
    relabeled = BipartiteInstance(4, 3, frozenset({0, 2}), frozenset({2}))
    angles_a = angles_from_instance(FIG2)
    angles_b = angles_from_instance(relabeled)
    assert angles_a == angles_b
    assert np.array_equal(build_reduced_evolution(angles_a), build_reduced_evolution(angles_b))
    table_a, table_b = eigenphase_table(angles_a), eigenphase_table(angles_b)
    assert np.array_equal(table_a.phases, table_b.phases)
    assert np.array_equal(table_a.weights, table_b.weights)


@pytest.mark.parametrize("angles", random_angles(100, seed=9))
def test_spectral_closed_forms(angles):
    reduced = build_reduced_evolution(angles)
    decomposition = spectral_decomposition(angles)
    vectors = np.column_stack([r.eigenvector for r in decomposition.records])
    assert np.abs(vectors.conj().T @ vectors - np.eye(8)).max() < 1e-12
    for record in decomposition.records:
        assert eigen_residual(reduced, record.eigenvalue, record.eigenvector) < 1e-12
        assert abs(record.eigenvalue - np.exp(1j * record.eigenphase)) < 1e-12
        assert 0.0 <= record.eigenphase < 2 * math.pi


@pytest.mark.parametrize("angles", random_angles(100, seed=10))
def test_overlaps_match_closed_forms(angles):
    decomposition = spectral_decomposition(angles)
    cos_mu, cos_sigma = math.cos(angles.mu), math.cos(angles.sigma)
    expected = [
        (1 + cos_sigma) / 8, (1 - cos_sigma) / 8, (1 + cos_sigma) / 8, (1 - cos_sigma) / 8,
        (1 + cos_mu) / 8, (1 - cos_mu) / 8, (1 + cos_mu) / 8, (1 - cos_mu) / 8,
    ]
    overlaps = decomposition.overlaps()
    assert np.abs(overlaps - expected).max() < 1e-12
    assert overlaps.sum() == pytest.approx(1.0, abs=1e-12)


def test_fig2_overlap_values():
    decomposition = spectral_decomposition(angles_from_instance(FIG2))
    overlaps = {r.label: r.initial_overlap for r in decomposition.records}
    assert overlaps["mu+"] == pytest.approx((1 + math.cos(FIG2_SIGMA)) / 8, abs=1e-15)
    assert overlaps["mu+"] == pytest.approx(0.2481998199566861, abs=1e-12)
    assert overlaps["mu-"] == pytest.approx(0.0018001800433139065, abs=1e-12)
    assert overlaps["sigma+"] == pytest.approx(0.14613774734072035, abs=1e-12)
    assert overlaps["sigma-"] == pytest.approx(0.10386225265927966, abs=1e-12)
    assert overlaps["mu+*"] == overlaps["mu+"]
    assert overlaps["sigma-*"] == overlaps["sigma-"]


def test_eigenphase_table_weights():
    table = eigenphase_table(angles_from_instance(FIG2))
    assert table.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert table.weights[0] == pytest.approx(math.cos(FIG2_SIGMA / 2) ** 2 / 4, abs=1e-15)
    assert table.phases[0] == pytest.approx(FIG2_MU, abs=1e-15)
    assert table.phases[1] == pytest.approx(2 * math.pi - FIG2_MU, abs=1e-12)


def test_eigenphase_table_sigma_zero():
    # Equal angle in both parts: no weight on the reflected middle phases.
    angles = angles_from_instance(BipartiteInstance.from_counts(4, 4, 1, 1))
    table = eigenphase_table(angles)
    assert angles.sigma == 0.0
    assert table.weights[2] == table.weights[3] == 0.0


def test_eigenphase_table_single_part_merges():
    # Marks confined to part 0 leave only four distinct phases.
    angles = angles_from_instance(BipartiteInstance.from_counts(4, 3, 1, 0))
    table = eigenphase_table(angles)
    assert angles.mu == angles.sigma == pytest.approx(angles.theta0 / 2, abs=1e-15)
    distinct = {}
    for phase, weight in zip(table.phases, table.weights):
        distinct[round(float(phase), 12)] = distinct.get(round(float(phase), 12), 0.0) + float(weight)
    assert len(distinct) == 4
    half = angles.theta0 / 2
    assert distinct[round(half, 12)] == pytest.approx(math.cos(half / 2) ** 2 / 2, abs=1e-12)
    assert distinct[round(math.pi - half, 12)] == pytest.approx(math.sin(half / 2) ** 2 / 2, abs=1e-12)


@pytest.mark.parametrize("angles", random_angles(50, seed=12))
def test_eigenphase_table_consistent_with_overlaps(angles):
    # Each table row carries the overlap of the eigenvector whose eigenvalue
    # has that phase: -e^{i mu} sits at pi + mu, i.e. at -(pi - mu) mod 2pi.
    table = eigenphase_table(angles)
    decomposition = spectral_decomposition(angles)
    by_label = {r.label: r for r in decomposition.records}
    pairing = {
        0: "mu+", 1: "mu+*", 2: "mu-*", 3: "mu-",
        4: "sigma+", 5: "sigma+*", 6: "sigma-*", 7: "sigma-",
    }
    for row, label in pairing.items():
        record = by_label[label]
        assert table.phases[row] == pytest.approx(record.eigenphase, abs=1e-12)
        assert table.weights[row] == pytest.approx(record.initial_overlap, abs=1e-12)


@pytest.mark.parametrize("inst", [FIG2] + list(iter_count_instances(3)))
def test_reduced_model_is_real(inst):
    # Basis vectors, the reduced step (both transfer blocks), its start state
    # and the projected arc-space step are float64; only the eigenvectors are complex.
    angles = angles_from_instance(inst)
    basis = invariant_basis(inst)
    projected, _ = reduce_operator(build_evolution(inst, build_oracle(inst)), basis)
    arrays = [v for v in basis.vectors if v is not None] + [
        basis.matrix(), build_reduced_evolution(angles), reduced_uniform_state(angles), projected]
    assert all(a.dtype == np.float64 for a in arrays)
    records = spectral_decomposition(angles).records
    assert all(r.eigenvector.dtype == np.complex128 for r in records)
