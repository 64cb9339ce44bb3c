import math

import numpy as np
import pytest

from qwcount import eigen_residual, mat_mul, unitarity_defect
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
