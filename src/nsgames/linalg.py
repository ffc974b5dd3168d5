"""Dense complex-matrix kernel used by every operator-measure module.

Operators are plain complex ``numpy`` arrays in row-major order; a
"Hermitian operator" is any square array that passes :func:`require_hermitian`
(or was produced by :func:`hermitize`).  All routines are pure functions of
immutable inputs and may be called concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import (FACTOR_TOL, INVARIANT_TOL, ROUNDING_TOL, NotPsdError, NumericError,
                     PreconditionError, ValidationError)


def max_abs(matrix: np.ndarray) -> float:
    """Entrywise max-modulus norm; 0.0 for empty input."""
    if matrix.size == 0:
        return 0.0
    return float(np.max(np.abs(matrix)))


def _max_abs_each(stack: np.ndarray) -> np.ndarray:
    """Entrywise max-modulus norm of each matrix in a (..., m, n) stack."""
    return np.abs(stack).max(axis=(-2, -1), initial=0.0)


def first_above(values: np.ndarray, tol: float) -> tuple[int, ...] | None:
    """Index of the first entry of ``values``, in C order, above ``tol``."""
    hits = np.argwhere(values > tol)
    return tuple(int(i) for i in hits[0]) if hits.size else None


def hermitize(matrix: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (M + M*)/2 of a square matrix, or of each
    matrix in a (..., n, n) stack."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2]:
        raise ValidationError("square matrix", detail=f"shape {matrix.shape}")
    return (matrix + matrix.conj().swapaxes(-1, -2)) / 2.0


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Entrywise norm of M - M*, over a square matrix or a (..., n, n) stack."""
    matrix = np.asarray(matrix)
    return max_abs(matrix - matrix.conj().swapaxes(-1, -2))


def require_hermitian(matrix: np.ndarray, tol: float = ROUNDING_TOL) -> np.ndarray:
    """Validate near-Hermiticity and return the symmetrized matrix.

    Takes a square matrix or a (..., n, n) stack.  Raises ValidationError for
    the first matrix, in C order, with a non-finite entry or with
    ||M - M*||_max above ``tol``; otherwise the Hermitian part is returned,
    so downstream code can rely on exact Hermiticity.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2]:
        raise ValidationError("square matrix", detail=f"shape {matrix.shape}")
    finite = np.isfinite(matrix).all(axis=(-2, -1)).reshape(-1)
    with np.errstate(invalid="ignore"):
        defects = _max_abs_each(matrix - matrix.conj().swapaxes(-1, -2)).reshape(-1)
    first = first_above(np.where(finite, defects, np.inf), tol)
    if first is not None:
        if not finite[first]:
            raise ValidationError("finite entries")
        raise ValidationError("Hermitian", residual=float(defects[first]))
    return hermitize(matrix)


def herm_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues sorted in
    descending order and the matching orthonormal eigenvectors as columns, so
    that M = U diag(w) U*.  Residuals ||MU - U diag(w)||_max and
    ||U*U - I||_max are verified to be at most ``FACTOR_TOL`` (scaled by the
    matrix's largest entry for the first).
    """
    if np.ndim(matrix) != 2:
        raise ValidationError("square matrix", detail=f"shape {np.shape(matrix)}")
    matrix = require_hermitian(matrix, tol=INVARIANT_TOL)
    try:
        eigenvalues, vectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"Hermitian eigendecomposition failed: {exc}") from exc
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    vectors = vectors[:, order]
    scale = max(1.0, max_abs(matrix))
    residual = max_abs(matrix @ vectors - vectors * eigenvalues)
    ortho = max_abs(vectors.conj().T @ vectors - np.eye(matrix.shape[0]))
    if residual > FACTOR_TOL * scale or ortho > FACTOR_TOL:
        raise NumericError(
            "eigendecomposition residual above tolerance",
            residual=max(residual, ortho),
        )
    return eigenvalues, vectors


def psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Positive-semidefinite square root of a PSD Hermitian matrix.

    Eigenvalues in [-``INVARIANT_TOL``, 0) are treated as round-off and
    clipped to 0; a lower eigenvalue raises NotPsdError carrying the
    offending value.  Positive eigenvalues below ``ROUNDING_TOL`` are also
    zeroed: their square roots (~1e-6 and larger) would otherwise amplify
    round-off far above the value they represent, while zeroing them perturbs
    R^2 by at most ``ROUNDING_TOL``.
    """
    eigenvalues, vectors = herm_eig(matrix)
    smallest = float(eigenvalues[-1]) if eigenvalues.size else 0.0
    if smallest < -INVARIANT_TOL:
        raise NotPsdError(smallest)
    clipped = np.where(eigenvalues < ROUNDING_TOL, 0.0, eigenvalues)
    root = (vectors * np.sqrt(clipped)) @ vectors.conj().T
    return hermitize(root)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with row-major pair indexing (i,k) -> i*rows(B)+k."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def commutator_norm(a: np.ndarray, b: np.ndarray) -> np.ndarray | float:
    """||AB - BA||_max for two equal-dimension square matrices.

    For stacks of shapes (..., d, d) it returns the norm for every pair
    (A_i, B_j), as an array of shape a.shape[:-2] + b.shape[:-2].
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[-2:] != b.shape[-2:]:
        raise ValidationError("equal dimensions", detail=f"{a.shape} vs {b.shape}")
    a = a.reshape(a.shape[:-2] + (1,) * (b.ndim - 2) + a.shape[-2:])
    return _max_abs_each(a @ b - b @ a)


def isometry_defect(isometry: np.ndarray) -> float:
    """||V*V - I||_max for a K x H matrix V."""
    return max_abs(isometry.conj().T @ isometry - np.eye(isometry.shape[1]))


def projection_defects(effects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """How far a (k, d, d) effect stack is from a PVM.

    Returns ||P_a^2 - P_a||_max per effect, shape (k,), and ||P_a P_b||_max
    per pair a < b, as a (k, k) array that is zero on and below the diagonal.
    """
    effects = np.asarray(effects)
    return (_max_abs_each(effects @ effects - effects),
            np.triu(_max_abs_each(effects[:, None] @ effects[None]), 1))


def extend_isometry_to_unitary(isometry: np.ndarray) -> np.ndarray:
    """Complete a K x H isometry to a K x K unitary whose first H columns are V.

    The completion columns are the last K - H columns of the complete
    Householder QR factorization of V (deterministic), an orthonormal basis
    of the complement of V's range.  Both V*V and U*U must be the identity
    within ``FACTOR_TOL``.
    """
    isometry = np.asarray(isometry, dtype=complex)
    if isometry.ndim != 2 or isometry.shape[0] < isometry.shape[1]:
        raise PreconditionError(f"expected tall matrix, got shape {isometry.shape}")
    defect = isometry_defect(isometry)
    if defect > FACTOR_TOL:
        raise PreconditionError(f"columns not orthonormal (residual {defect:.3e})")
    complement = np.linalg.qr(isometry, mode="complete")[0][:, isometry.shape[1]:]
    unitary = np.hstack([isometry, complement])
    residual = isometry_defect(unitary)
    if residual > FACTOR_TOL:
        raise NumericError("completed matrix is not unitary", residual=residual)
    return unitary
