"""The verify suite against its dense formulas.

``verify_suite`` checks the shift, the oracles and the ancilla oracles on
the structure ``walk`` builds them from.  The reference here forms every row
the dense way, from the dense builders and the conftest views of those
structures: Grams, products and the strided ``|+⟩`` restriction of the dense
matrices.  Each row must agree to the bit, and a broken structure must fail
its rows with the value the dense matrix of that structure gives.
"""

import numpy as np
import pytest

from qwcount import (
    BipartiteInstance,
    angles_from_instance,
    build_coin,
    build_evolution,
    build_oracle,
    build_reduced_evolution,
    circuit_distribution,
    eigen_residual,
    eigenphase_table,
    exact_distribution,
    full_count,
    invariant_basis,
    reduce_operator,
    spectral_decomposition,
    total_variation,
    uniform_state,
    unitarity_defect,
    verify_suite,
)
from qwcount import analysis, linalg, walk

from conftest import build_ancilla_oracle, build_part_oracle, build_shift, restrict_to_plus_ancilla


def identity_distance(m):
    return np.abs(m - np.eye(m.shape[0])).max()


def dense_operator_rows(inst, oracle=None):
    """The rows of the arc-space operators, from their dense matrices, and
    the dense step."""
    shift, coin = build_shift(inst), build_coin(inst)
    oracle = build_oracle(inst) if oracle is None else oracle
    parts = [build_part_oracle(inst, j) for j in (0, 1)]
    ancillas = [build_ancilla_oracle(inst, j) for j in (0, 1)]
    rows = {
        "unitarity_shift": unitarity_defect(shift),
        "unitarity_coin": unitarity_defect(coin),
        "unitarity_oracle": unitarity_defect(oracle),
        "involution_shift": identity_distance(shift @ shift),
        "involution_coin": identity_distance(coin @ coin),
        "involution_oracle": identity_distance(oracle @ oracle),
        "part_oracle_product": np.abs(parts[0] @ parts[1] - oracle).max(),
    }
    for j in (0, 1):
        rows[f"unitarity_part_oracle_{j}"] = unitarity_defect(parts[j])
        rows[f"unitarity_ancilla_oracle_{j}"] = unitarity_defect(ancillas[j])
        rows[f"ancilla_restriction_{j}"] = np.abs(
            restrict_to_plus_ancilla(ancillas[j]) - parts[j]).max()
    evolution = build_evolution(inst, oracle)
    rows["unitarity_evolution"] = unitarity_defect(evolution)
    return rows, evolution


def dense_reference_rows(inst, p, oracle=None):
    """Every verify-suite row, the dense way, through public functions only."""
    rows, evolution = dense_operator_rows(inst, oracle)
    basis, angles = invariant_basis(inst), angles_from_instance(inst)
    projected, rows["invariant_leakage"] = reduce_operator(evolution, basis)
    present = basis.present_indices()
    reduced_matrix = build_reduced_evolution(angles)
    rows["reduced_reconciliation"] = np.abs(
        projected - reduced_matrix[np.ix_(present, present)]).max()
    records = spectral_decomposition(angles).records
    rows["eigen_residual_max"] = max(eigen_residual(reduced_matrix, r.eigenvalue, r.eigenvector)
                                     for r in records)
    vectors = np.column_stack([r.eigenvector for r in records])
    rows["eigenvector_gram_defect"] = identity_distance(vectors.conj().T @ vectors)
    cos_mu, cos_sigma = np.cos(angles.mu), np.cos(angles.sigma)
    closed = np.array([(1 + cos_sigma) / 8, (1 - cos_sigma) / 8] * 2
                      + [(1 + cos_mu) / 8, (1 - cos_mu) / 8] * 2)
    overlaps = np.array([r.initial_overlap for r in records])
    rows["overlap_closed_form"] = np.abs(overlaps - closed).max()
    rows["overlap_sum"] = abs(overlaps.sum() - 1.0)
    rows["analytic_circuit_tv"] = total_variation(
        exact_distribution(eigenphase_table(angles), p),
        circuit_distribution(evolution, uniform_state(inst), p))
    joint = full_count(p, inst)
    for name, dist in (("part0", joint.part0), ("part1", joint.part1)):
        rows[f"{name}_bound_mass"] = dist.mass_within(dist.bound)
    rows["total_bound_mass"] = joint.mass_within(joint.bound)
    return rows


def assert_rows_match(report, reference):
    assert {c.name for c in report.checks} == set(reference)
    got = {c.name: c.value.hex() for c in report.checks}
    assert got == {name: float(value).hex() for name, value in reference.items()}


def small_instances():
    for n0 in range(1, 13):
        for n1 in range(1, 12 // n0 + 1):
            for k0 in range(n0 + 1):
                for k1 in range(n1 + 1):
                    yield BipartiteInstance.from_counts(n0, n1, k0, k1)


def corrupt_oracle(inst):
    oracle = build_oracle(inst)
    oracle[0, 0] = -oracle[0, 0]
    return oracle


@pytest.mark.parametrize("p", [2, 4])
def test_every_row_is_bit_equal_to_the_dense_formulas(p):
    for inst in small_instances():
        assert_rows_match(verify_suite(inst, p), dense_reference_rows(inst, p))


def test_every_row_under_the_corrupt_oracle_is_bit_equal_to_the_dense_formulas():
    for inst in small_instances():
        oracle = corrupt_oracle(inst)
        assert_rows_match(verify_suite(inst, 3, oracle=oracle),
                          dense_reference_rows(inst, 3, oracle))


def test_default_path_neither_validates_nor_detects(monkeypatch):
    # The suite checks what it built itself: no input coercion.
    coerced = []
    as_finite = linalg._as_finite

    def counting(a, rank, kind):
        coerced.append(np.shape(a))
        return as_finite(a, rank, kind)

    monkeypatch.setattr(linalg, "_as_finite", counting)
    assert verify_suite(BipartiteInstance.from_counts(8, 8, 3, 5), 4).all_passed
    assert coerced == []


# Negative controls: each structured helper broken in one place.  The
# dense builders and views read the same helper, so the dense reference sees
# the same broken operator.

FIG = BipartiteInstance(3, 4, frozenset({2}), frozenset({1, 3}))


def patch_helper(monkeypatch, name, broken):
    original = getattr(walk, name)

    def patched(*args):
        return broken(original(*args), *args)

    monkeypatch.setattr(walk, name, patched)
    if hasattr(analysis, name):  # where analysis imports the helper
        monkeypatch.setattr(analysis, name, patched)


def assert_rows_fail_as_dense(names):
    """Each operator row carries the dense reference's value and fails
    exactly when it is in ``names``; a named row outside the operator rows,
    such as the circuit's TV, fails too."""
    report = {c.name: c for c in verify_suite(FIG, 3).checks}
    reference, _ = dense_operator_rows(FIG)
    for name in reference:
        assert report[name].value.hex() == float(reference[name]).hex(), name
        assert report[name].passed == (name not in names), name
    for name in set(names) - set(reference):
        assert not report[name].passed, name


def test_a_repeated_index_in_the_shift_map_fails(monkeypatch):
    def repeated(index_map, inst):
        index_map[0] = index_map[1]
        return index_map

    patch_helper(monkeypatch, "_shift_map", repeated)
    assert_rows_fail_as_dense({"unitarity_shift", "involution_shift", "unitarity_evolution",
                               "analytic_circuit_tv"})


def test_a_shift_map_that_is_no_involution_fails(monkeypatch):
    def cycled(index_map, inst):
        index_map[[0, 1, 2]] = index_map[[1, 2, 0]]
        return index_map

    patch_helper(monkeypatch, "_shift_map", cycled)
    assert_rows_fail_as_dense({"involution_shift"})


def test_an_oracle_sign_of_one_half_fails(monkeypatch):
    def halved(signs, marks, which=None):
        if which is None:
            signs[np.flatnonzero(signs > 0)[0]] = 0.5  # an unmarked arc stays unmarked
        return signs

    patch_helper(monkeypatch, "_oracle_signs", halved)
    assert_rows_fail_as_dense({"unitarity_oracle", "involution_oracle", "part_oracle_product",
                               "unitarity_evolution", "analytic_circuit_tv"})


def one_sign_of_one_half(oracle):
    arc = np.flatnonzero(np.diagonal(oracle) > 0)[0]
    oracle[arc, arc] = 0.5
    return oracle


@pytest.mark.parametrize("counts, p, broken, evolution_passes", [
    # The circuit finds the step not unitary (defect 0.75).
    ((3, 4, 1, 2), 3, one_sign_of_one_half, False),
    # The step passes unitarity_evolution (9.8e-11), but the circuit's
    # masses do not sum to 1.
    ((8, 8, 3, 5), 11, lambda oracle: oracle * (1 + 4.9e-11), True),
], ids=["one_sign_of_one_half", "every_sign_scaled"])
def test_a_step_the_circuit_refuses_is_reported(counts, p, broken, evolution_passes):
    inst = BipartiteInstance.from_counts(*counts)
    oracle = broken(build_oracle(inst))
    report = verify_suite(inst, p, oracle=oracle)
    rows = {c.name: c for c in report.checks}
    assert not report.all_passed
    assert rows["analytic_circuit_tv"].value == 1.0
    assert not rows["analytic_circuit_tv"].passed
    assert rows["unitarity_evolution"].passed == evolution_passes
    reference, _ = dense_operator_rows(inst, oracle)
    for name, value in reference.items():
        assert rows[name].value.hex() == float(value).hex(), name


@pytest.mark.parametrize("part", [0, 1])
def test_a_part_oracle_sign_of_one_half_fails(monkeypatch, part):
    def halved(signs, marks, which=None):
        if which == part:
            signs[np.flatnonzero(signs > 0)[0]] = 0.5
        return signs

    patch_helper(monkeypatch, "_oracle_signs", halved)
    assert_rows_fail_as_dense({f"unitarity_part_oracle_{part}", "part_oracle_product",
                               f"ancilla_restriction_{part}"})


@pytest.mark.parametrize("part", [0, 1])
def test_an_ancilla_block_holding_two_fails(monkeypatch, part):
    def doubled(blocks, marks, which):
        if which == part:
            blocks[0, 0, 0] = 2.0
        return blocks

    patch_helper(monkeypatch, "_ancilla_blocks", doubled)
    assert_rows_fail_as_dense({f"unitarity_ancilla_oracle_{part}", f"ancilla_restriction_{part}"})
