"""Dense linear algebra helpers used by every other module.

Matrices are two-dimensional numpy arrays (row-major) and vectors are
one-dimensional arrays, both float64 when the entries are real and
complex128 when they are complex.  The walk operators, the invariant basis
and the reduced step are real, so their products run in real BLAS; numpy's
dtype promotion is the only dispatch, and a complex operand anywhere makes
the product complex.  Every dimension in this package is small (a few
hundred at most), so storage is dense throughout and there is no sparse or
arbitrary-precision path.  No general-purpose eigensolver is used anywhere:
eigenpairs come from closed forms and are checked with
:func:`eigen_residual`.

Distances from the identity are taken on a fresh product in place: 1 is
subtracted from its diagonal and, for real input, ``abs`` overwrites it, so
no identity matrix or temporary is allocated.

:func:`unitarity_defect` and :func:`eigen_residual` validate their input,
then call the private cores ``_gram_defect`` and ``_eigen_residual``.  The
verify suite calls the cores on the coin, step and reduced step it built;
it checks the shift and the oracles on their structure in
:mod:`qwcount.walk`, with no dense matrix.
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


def _as_finite(a, rank: int, kind: str) -> np.ndarray:
    """``a`` as a finite array of the given rank: complex128 if complex, else float64."""
    arr = np.asarray(a)
    if arr.dtype.kind not in "biufc":
        raise ValueError(f"{kind} entries must be numeric, got dtype {arr.dtype}")
    arr = arr.astype(np.complex128 if arr.dtype.kind == "c" else np.float64, copy=False)
    if arr.ndim != rank:
        raise ValueError(f"expected a {kind}, got array of rank {arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{kind} entries must be finite")
    return arr


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite matrix.

    Complex input becomes complex128; any other numeric input (bool, integer,
    float) becomes float64, so a real operator stays real.

    Raises
    ------
    ValueError
        If ``a`` is not numeric, not two-dimensional, or contains NaN/Inf
        entries.
    """
    return _as_finite(a, 2, "matrix")


def as_vector(v) -> np.ndarray:
    """Coerce ``v`` to a finite vector, with the dtype rule of :func:`as_matrix`."""
    return _as_finite(v, 1, "vector")


def mat_mul(a, b) -> np.ndarray:
    """Matrix product ``a @ b`` with explicit dimension checking."""
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape[1] != bm.shape[0]:
        raise ValueError(f"dimension mismatch: {am.shape} @ {bm.shape}")
    return am @ bm


def _identity_distance(product: np.ndarray) -> float:
    """``max |product − I|`` for a fresh square product, which it overwrites."""
    product.flat[::product.shape[0] + 1] -= 1
    if product.dtype.kind == "c":
        return float(np.abs(product).max())
    return float(np.abs(product, out=product).max())


def _gram_defect(am: np.ndarray) -> float:
    """``max |a† a − I|`` from the dense Gram product."""
    return _identity_distance(am.conj().T @ am)


def unitarity_defect(a) -> float:
    """Maximum entrywise deviation of ``a† a`` from the identity.

    Zero for exactly unitary matrices; values below 1e-10 are treated as
    unitary throughout the package.
    """
    am = as_matrix(a)
    if am.shape[0] != am.shape[1]:
        raise ValueError(f"unitarity requires a square matrix, got {am.shape}")
    return _gram_defect(am)


def eigen_residual(a, eigenvalue: complex, v) -> float:
    """Relative eigenpair residual ``‖a v − λ v‖₂ / ‖v‖₂``."""
    am, vv = as_matrix(a), as_vector(v)
    if am.shape[0] != am.shape[1]:
        raise ValueError(f"eigen residual requires a square matrix, got {am.shape}")
    if am.shape[1] != vv.shape[0]:
        raise ValueError(f"dimension mismatch: {am.shape} and ({vv.shape[0]},)")
    if np.linalg.norm(vv) == 0.0:
        raise ValueError("eigenvector must be nonzero")
    return _eigen_residual(am, eigenvalue, vv)


def _eigen_residual(am: np.ndarray, eigenvalue: complex, vv: np.ndarray) -> float:
    """:func:`eigen_residual` of a validated square ``am`` and nonzero ``vv``."""
    return float(np.linalg.norm(am @ vv - eigenvalue * vv) / np.linalg.norm(vv))
