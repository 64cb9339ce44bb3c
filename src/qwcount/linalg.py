"""Dense complex linear algebra helpers used by every other module.

Matrices are two-dimensional numpy arrays of dtype complex128 (row-major)
and vectors are one-dimensional complex128 arrays.  Every dimension in this
package is small (a few hundred at most), so storage is dense throughout and
there is no sparse or arbitrary-precision path.  No general-purpose
eigensolver is used anywhere: eigenpairs come from closed forms and are
checked with :func:`eigen_residual`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_matrix",
    "as_vector",
    "mat_mul",
    "unitarity_defect",
    "eigen_residual",
]


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite complex128 matrix.

    Raises
    ------
    ValueError
        If ``a`` is not two-dimensional or contains NaN/Inf entries.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of rank {m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_vector(v) -> np.ndarray:
    """Coerce ``v`` to a finite complex128 vector."""
    w = np.asarray(v, dtype=np.complex128)
    if w.ndim != 1:
        raise ValueError(f"expected a vector, got array of rank {w.ndim}")
    if not np.all(np.isfinite(w)):
        raise ValueError("vector entries must be finite")
    return w


def mat_mul(a, b) -> np.ndarray:
    """Matrix product ``a @ b`` with explicit dimension checking."""
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape[1] != bm.shape[0]:
        raise ValueError(f"dimension mismatch: {am.shape} @ {bm.shape}")
    return am @ bm


def unitarity_defect(a) -> float:
    """Maximum entrywise deviation of ``a† a`` from the identity.

    Zero for exactly unitary matrices; values below 1e-10 are treated as
    unitary throughout the package.
    """
    am = as_matrix(a)
    if am.shape[0] != am.shape[1]:
        raise ValueError(f"unitarity requires a square matrix, got {am.shape}")
    gram = am.conj().T @ am
    return float(np.abs(gram - np.eye(am.shape[0])).max())


def eigen_residual(a, eigenvalue: complex, v) -> float:
    """Relative eigenpair residual ``‖a v − λ v‖₂ / ‖v‖₂``."""
    am, vv = as_matrix(a), as_vector(v)
    if am.shape[0] != am.shape[1]:
        raise ValueError(f"eigen residual requires a square matrix, got {am.shape}")
    if am.shape[1] != vv.shape[0]:
        raise ValueError(f"dimension mismatch: {am.shape} and ({vv.shape[0]},)")
    norm = np.linalg.norm(vv)
    if norm == 0.0:
        raise ValueError("eigenvector must be nonzero")
    return float(np.linalg.norm(am @ vv - eigenvalue * vv) / norm)
