"""Symmetric eigendecomposition and matrix diagnostics.

The eigensolver returns LAPACK's eigenbasis, certified: the basis is returned
only when the matrix rotated into it passes Jacobi's convergence test (its
largest off-diagonal entry is negligible), and is rejected otherwise.

Reproducibility: results are bit-identical for a fixed numpy/BLAS build and
BLAS thread count.  Across builds or thread counts, eigenvalues agree to
1e-10 relative, but the basis chosen for a repeated or zero eigenvalue may
differ (correlations estimated from fewer samples than their dimension are
rank-deficient, so this is the common case for wide layers).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, SymmetryError

CONVERGENCE_RTOL = 1e-12
SYMMETRY_ATOL = 1e-9


@dataclass
class EigenDecomposition:
    """Orthogonal factor ``U`` (columns = eigenvectors) and eigenvalues ``S``.

    Eigenvalues are sorted non-increasing.  Each eigenvector is sign-fixed so
    that its largest-magnitude component is non-negative.
    """

    U: np.ndarray
    S: np.ndarray


def _as_square(A, name="matrix"):
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {A.shape}")
    return A


def jacobi_eigh(A):
    """Eigendecomposition of a symmetric PSD matrix: LAPACK's basis, certified.

    The eigenvectors ``V`` of ``np.linalg.eigh`` are accepted when the
    largest off-diagonal entry of ``V^T A V`` is below ``1e-12 * max|A|``
    (Jacobi's convergence test); the eigenvalues are that matrix's diagonal.
    Raises ConvergenceError (with the residual) otherwise.
    Bit-reproducible for a fixed numpy/BLAS build and thread count; see the
    module docstring for the scope across builds.
    """
    A = _as_square(A)
    if not np.all(np.isfinite(A)):
        raise DimensionError("matrix contains non-finite entries")
    asym = np.max(np.abs(A - A.T)) if A.size else 0.0
    if asym > SYMMETRY_ATOL * max(1.0, np.max(np.abs(A))):
        raise SymmetryError(f"matrix is asymmetric (max |A - A^T| = {asym:.3e})")

    n = A.shape[0]
    if n == 0:
        return EigenDecomposition(U=np.eye(0), S=np.zeros(0))

    sym = 0.5 * (A + A.T)
    if n == 1 or not np.any(sym):
        return _finalize(np.diag(sym).copy(), np.eye(n))
    _, V = np.linalg.eigh(sym)
    work = V.T @ sym @ V
    work = 0.5 * (work + work.T)
    threshold = CONVERGENCE_RTOL * np.max(np.abs(sym))
    residual = np.max(np.abs(work[~np.tri(n, dtype=bool)]))
    if residual < threshold:
        return _finalize(np.diag(work).copy(), V)
    raise ConvergenceError(
        f"eigenbasis not certified: off-diagonal residual {residual:.3e} "
        f"(threshold {threshold:.3e})"
    )


def _finalize(eigvals, V):
    order = np.argsort(-eigvals, kind="stable")
    S = eigvals[order]
    U = V[:, order]
    # Sign convention: largest-magnitude component of each column >= 0.
    lead = np.argmax(np.abs(U), axis=0)
    flip = U[lead, np.arange(U.shape[1])] < 0.0
    U[:, flip] *= -1.0
    return EigenDecomposition(U=U, S=S)


def diag_energy_ratio(A):
    """Fraction of squared-entry mass on the diagonal; 1.0 for the zero matrix."""
    A = _as_square(A)
    total = float(np.sum(A * A))
    if total == 0.0:
        return 1.0
    return float(np.sum(np.diag(A) ** 2)) / total
