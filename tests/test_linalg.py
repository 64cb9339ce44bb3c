import math

import numpy as np
import pytest

import qwcount
from qwcount import (
    BipartiteInstance,
    build_coin,
    build_evolution,
    build_oracle,
    eigen_residual,
    mat_mul,
    unitarity_defect,
    verify_suite,
)
from qwcount import linalg
from qwcount.linalg import as_matrix, as_vector

from conftest import rotation

X = np.array([[0, 1], [1, 0]], dtype=np.complex128)


def test_mat_mul_identity():
    eye = np.eye(2, dtype=np.complex128)
    assert np.array_equal(mat_mul(eye, eye), eye)


def test_mat_mul_involution():
    assert np.allclose(mat_mul(X, X), np.eye(2), atol=0)


def test_mat_mul_rotation_composition():
    # Composing rotations adds angles; expected matrix evaluated directly.
    product = mat_mul(rotation(math.pi / 3), rotation(math.pi / 6))
    assert np.abs(product - rotation(math.pi / 2)).max() < 1e-12


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(np.eye(2), np.eye(3))


def test_mat_mul_rejects_nonfinite():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        mat_mul(bad, np.eye(2))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mat_mul_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.uniform(-1, 1, (5, 5)) + 1j * rng.uniform(-1, 1, (5, 5)) for _ in range(3))
    left = mat_mul(mat_mul(a, b), c)
    right = mat_mul(a, mat_mul(b, c))
    assert np.abs(left - right).max() < 1e-12


def test_unitarity_defect_identity():
    assert unitarity_defect(np.eye(5)) == 0.0


def test_unitarity_defect_diagonal():
    # diag(1, 2): gram is diag(1, 4), so the defect is |4 - 1| = 3.
    assert unitarity_defect(np.diag([1.0, 2.0])) == pytest.approx(3.0, abs=0)


def test_unitarity_defect_requires_square():
    with pytest.raises(ValueError):
        unitarity_defect(np.ones((2, 3)))


def test_eigen_residual_identity():
    assert eigen_residual(np.eye(3), 1.0, [1.0, 0.0, 0.0]) == 0.0


def test_eigen_residual_bitflip():
    v = np.array([1.0, 1.0]) / math.sqrt(2)
    assert eigen_residual(X, 1.0, v) < 1e-15


def test_eigen_residual_rejects_zero_vector():
    with pytest.raises(ValueError):
        eigen_residual(np.eye(2), 1.0, [0.0, 0.0])


def test_eigen_residual_dimension_mismatch():
    with pytest.raises(ValueError):
        eigen_residual(np.eye(2), 1.0, [1.0, 0.0, 0.0])


@pytest.mark.parametrize("entries, dtype", [
    ([[1, 0], [0, 1]], np.float64),
    (np.eye(2, dtype=np.int8), np.float64),
    (np.eye(2, dtype=np.uint16), np.float64),
    (np.eye(2, dtype=bool), np.float64),
    (np.eye(2, dtype=np.float32), np.float64),
    (np.eye(2), np.float64),
    (np.eye(2, dtype=np.complex64), np.complex128),
    ([[1j, 0], [0, 1]], np.complex128),
])
def test_as_matrix_keeps_real_input_real(entries, dtype):
    m = as_matrix(entries)
    assert m.dtype == dtype
    assert np.array_equal(m, np.asarray(entries))
    assert as_vector(np.asarray(entries)[0]).dtype == dtype


def test_as_matrix_does_not_copy_float64_or_complex128():
    real, cplx = np.eye(3), np.eye(3, dtype=np.complex128)
    assert as_matrix(real) is real and as_matrix(cplx) is cplx


@pytest.mark.parametrize("bad", [
    [["a", "b"], ["c", "d"]],
    [["1", "0"], ["0", "1"]],
    np.array([[1.0, None], [0.0, 1.0]], dtype=object),
    [[1.0, np.nan], [0.0, 1.0]],
    [[1.0, np.inf], [0.0, 1.0]],
    [[1.0, complex(0.0, -np.inf)], [0.0, 1.0]],
    [1.0, 0.0],
], ids=["strings", "numeric_strings", "object", "nan", "inf", "complex_inf", "rank1"])
def test_as_matrix_rejects_nonnumeric_nonfinite_and_wrong_rank(bad):
    with pytest.raises(ValueError):
        as_matrix(bad)


@pytest.mark.parametrize("bad", ["abc", [1.0, np.nan], [np.inf], [[1.0]]])
def test_as_vector_rejects_nonnumeric_nonfinite_and_wrong_rank(bad):
    with pytest.raises(ValueError):
        as_vector(bad)


def dense_defect(a) -> float:
    """Reference: the dense Gram formula with an identity matrix."""
    a = np.asarray(a)
    return float(np.abs(a.conj().T @ a - np.eye(a.shape[0])).max())


def signed_permutation(rng, n, dtype=np.float64):
    """A random signed permutation whose zeros are a random mix of +0.0 and -0.0."""
    m = np.zeros((n, n), dtype=dtype)
    m[rng.random((n, n)) < 0.5] = -0.0
    m[np.arange(n), rng.permutation(n)] = rng.choice([-1.0, 1.0], n)
    if dtype == np.complex128:
        m.imag[rng.random((n, n)) < 0.5] = -0.0
    return m


@pytest.fixture
def dense_grams(monkeypatch):
    """The operands that reach the dense Gram product, in call order."""
    operands = []
    dense = linalg._gram_defect

    def recording(am):
        operands.append(am)
        return dense(am)

    monkeypatch.setattr(linalg, "_gram_defect", recording)
    monkeypatch.setattr(qwcount.analysis, "_gram_defect", recording)
    return operands


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 48, 256])
def test_signed_permutation_defect_is_exact(n, dtype):
    rng = np.random.default_rng(n)
    negative_zeros = 0
    for _ in range(5):
        m = signed_permutation(rng, n, dtype)
        negative_zeros += np.signbit(m.real[m.real == 0]).sum()
        assert unitarity_defect(m).hex() == dense_defect(m).hex() == (0.0).hex()
    assert negative_zeros > 0 or n == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_defect_matches_formula(dense_grams, seed):
    rng = np.random.default_rng(seed)
    real = np.linalg.qr(rng.standard_normal((40, 40)))[0]
    cplx = np.linalg.qr(rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)))[0]
    for m in (real, cplx, 1.5 * real, real[:, ::-1]):
        assert unitarity_defect(m).hex() == dense_defect(m).hex()
    assert len(dense_grams) == 4


def test_empty_matrix_is_rejected():
    with pytest.raises(ValueError):
        unitarity_defect(np.zeros((0, 0)))


def test_verify_suite_forms_dense_grams_only_for_coin_and_evolution(dense_grams):
    # Shift, oracle, both part oracles and both ancilla oracles are checked on
    # their structure, with no Gram.  The circuit engine reuses the
    # evolution's defect from the unitarity check, so each operator has one.
    inst = BipartiteInstance.from_counts(8, 8, 3, 5)
    assert verify_suite(inst, 8).all_passed
    coin, evolution = build_coin(inst), build_evolution(inst, build_oracle(inst))
    names = ["coin" if np.array_equal(m, coin) else
             "evolution" if np.array_equal(m, evolution) else f"other {m.shape}"
             for m in dense_grams]
    assert names == ["coin", "evolution"]
