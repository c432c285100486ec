"""Symmetric eigendecomposition and matrix diagnostics.

The eigensolver starts from LAPACK's eigenbasis and certifies it with cyclic
Jacobi sweeps: the basis is returned only once the off-diagonal of the
rotated matrix passes Jacobi's convergence test, and sweeps refine it when it
does not.

Reproducibility: results are bit-identical for a fixed numpy/BLAS build and
BLAS thread count.  Across builds or thread counts, eigenvalues agree to
1e-10 relative, but the basis chosen for a repeated or zero eigenvalue may
differ (correlations estimated from fewer samples than their dimension are
rank-deficient, so this is the common case for wide layers).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, SymmetryError

SWEEP_BUDGET = 100
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
    """Eigendecomposition of a symmetric PSD matrix, certified by Jacobi sweeps.

    The sweeps start from the eigenvectors of ``np.linalg.eigh``.
    Convergence: max off-diagonal magnitude below ``1e-12 * max|A|``, within
    100 sweeps.  Raises ConvergenceError (with the residual) otherwise.
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
    return _jacobi_sweeps(sym, V)


def _jacobi_sweeps(sym, V):
    """Cyclic Jacobi sweeps on ``V^T sym V`` until it is diagonal to
    ``CONVERGENCE_RTOL * max|sym|``; ``V`` (orthogonal) is updated in place."""
    n = sym.shape[0]
    work = V.T @ sym @ V
    work = 0.5 * (work + work.T)
    threshold = CONVERGENCE_RTOL * np.max(np.abs(sym))
    skip = 0.01 * threshold
    upper = ~np.tri(n, dtype=bool)
    rounds = None
    for _ in range(SWEEP_BUDGET):
        off = np.max(np.abs(work[upper]))
        if off < threshold:
            return _finalize(np.diag(work).copy(), V)
        if rounds is None:  # built only when needed: at n=400 it costs more than eigh
            rounds = _round_robin_pairs(n)
        # One sweep visits every index pair once.  Pairs within a round are
        # disjoint, so their rotations commute and each rotation angle depends
        # only on its own 2x2 block; applying them together is exactly the
        # sequential cyclic result.
        for p, q in rounds:
            apq = work[p, q]
            active = np.abs(apq) > skip
            if not np.any(active):
                continue
            p = p[active]
            q = q[active]
            apq = apq[active]
            tau = (work[q, q] - work[p, p]) / (2.0 * apq)
            t = np.sign(tau) + (tau == 0.0)
            t /= np.abs(tau) + np.sqrt(1.0 + tau * tau)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            colp = work[:, p]
            colq = work[:, q]
            work[:, p] = c * colp - s * colq
            work[:, q] = s * colp + c * colq
            rowp = work[p, :]
            rowq = work[q, :]
            work[p, :] = c[:, None] * rowp - s[:, None] * rowq
            work[q, :] = s[:, None] * rowp + c[:, None] * rowq
            work[p, q] = 0.0
            work[q, p] = 0.0
            vp = V[:, p]
            vq = V[:, q]
            V[:, p] = c * vp - s * vq
            V[:, q] = s * vp + c * vq
    residual = float(np.max(np.abs(work[upper])))
    raise ConvergenceError(
        f"Jacobi sweeps exhausted ({SWEEP_BUDGET}); off-diagonal residual {residual:.3e}"
    )


def _round_robin_pairs(n):
    """Disjoint-pair rounds covering all index pairs once (tournament order)."""
    players = list(range(n)) + ([n] if n % 2 else [])  # n is a bye marker
    m = len(players)
    rounds = []
    for _ in range(m - 1):
        ps, qs = [], []
        for i in range(m // 2):
            a, b = players[i], players[m - 1 - i]
            if a < n and b < n:
                ps.append(min(a, b))
                qs.append(max(a, b))
        rounds.append((np.array(ps, dtype=np.intp), np.array(qs, dtype=np.intp)))
        players = [players[0]] + [players[-1]] + players[1:-1]
    return rounds


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
