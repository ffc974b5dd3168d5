"""Dense complex-matrix kernel used by every operator-measure module.

Operators are plain complex ``numpy`` arrays in row-major order; a
"Hermitian operator" is any square array that passes :func:`require_hermitian`
(or was produced by :func:`hermitize`).  All routines are pure functions of
immutable inputs and may be called concurrently.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPsdError, NumericError, PreconditionError, ValidationError

HERMITIAN_TOL = 1e-12
EIG_TOL = 1e-10
PSD_TOL = 1e-9


def max_abs(matrix: np.ndarray) -> float:
    """Entrywise max-modulus norm; 0.0 for empty input."""
    if matrix.size == 0:
        return 0.0
    return float(np.max(np.abs(matrix)))


def hermitize(matrix: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (M + M*)/2 of a square matrix, or of each
    matrix in a (..., n, n) stack."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2]:
        raise ValidationError("square matrix", detail=f"shape {matrix.shape}")
    return (matrix + matrix.conj().swapaxes(-1, -2)) / 2.0


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Entrywise norm of M - M*."""
    return max_abs(matrix - np.asarray(matrix).conj().T)


def require_hermitian(matrix: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate near-Hermiticity and return the symmetrized matrix.

    Raises ValidationError when ||M - M*||_max exceeds ``tol``; otherwise the
    Hermitian part is returned, so downstream code can rely on exact
    Hermiticity.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError("square matrix", detail=f"shape {matrix.shape}")
    if not np.all(np.isfinite(matrix.view(float))):
        raise ValidationError("finite entries")
    defect = hermiticity_defect(matrix)
    if defect > tol:
        raise ValidationError("Hermitian", residual=defect)
    return hermitize(matrix)


def herm_eig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues sorted in
    descending order and the matching orthonormal eigenvectors as columns, so
    that M = U diag(w) U*.  Residuals ||MU - U diag(w)||_max and
    ||U*U - I||_max are verified to be at most 1e-10.
    """
    matrix = require_hermitian(matrix, tol=1e-9)
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
    if residual > EIG_TOL * scale or ortho > EIG_TOL:
        raise NumericError(
            "eigendecomposition residual above tolerance",
            residual=max(residual, ortho),
        )
    return eigenvalues, vectors


def psd_sqrt(matrix: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """Positive-semidefinite square root of a PSD Hermitian matrix.

    Eigenvalues in [-1e-9, 0) are treated as round-off and clipped to 0; an
    eigenvalue below -1e-9 raises NotPsdError carrying the offending value.
    Positive eigenvalues below 1e-12 are also zeroed: their square roots
    (~1e-6 and larger) would otherwise amplify round-off far above the value
    they represent, while zeroing them perturbs R^2 by at most 1e-12.
    """
    eigenvalues, vectors = herm_eig(matrix)
    smallest = float(eigenvalues[-1]) if eigenvalues.size else 0.0
    if smallest < -tol:
        raise NotPsdError(smallest)
    clipped = np.where(eigenvalues < 1e-12, 0.0, eigenvalues)
    root = (vectors * np.sqrt(clipped)) @ vectors.conj().T
    return hermitize(root)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with row-major pair indexing (i,k) -> i*rows(B)+k."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """||AB - BA||_max for equal-dimension square matrices."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValidationError("equal dimensions", detail=f"{a.shape} vs {b.shape}")
    return max_abs(a @ b - b @ a)


def extend_isometry_to_unitary(isometry: np.ndarray, tol: float = EIG_TOL) -> np.ndarray:
    """Complete a K x H isometry to a K x K unitary whose first H columns are V.

    Completion columns come from Gram-Schmidt of the coordinate basis against
    the existing columns (deterministic), with one re-orthogonalization pass
    for stability.
    """
    isometry = np.asarray(isometry, dtype=complex)
    if isometry.ndim != 2 or isometry.shape[0] < isometry.shape[1]:
        raise PreconditionError(f"expected tall matrix, got shape {isometry.shape}")
    k, h = isometry.shape
    defect = max_abs(isometry.conj().T @ isometry - np.eye(h))
    if defect > tol:
        raise PreconditionError(f"columns not orthonormal (residual {defect:.3e})")
    columns = [isometry[:, j] for j in range(h)]
    for j in range(k):
        if len(columns) == k:
            break
        candidate = np.zeros(k, dtype=complex)
        candidate[j] = 1.0
        for _ in range(2):  # two passes of modified Gram-Schmidt
            for col in columns:
                candidate = candidate - np.vdot(col, candidate) * col
        norm = np.linalg.norm(candidate)
        if norm > 1e-8:
            columns.append(candidate / norm)
    if len(columns) != k:
        raise NumericError("failed to complete isometry to a unitary basis")
    unitary = np.column_stack(columns)
    residual = max_abs(unitary.conj().T @ unitary - np.eye(k))
    if residual > tol:
        raise NumericError("completed matrix is not unitary", residual=residual)
    return unitary
