import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rewc import linalg
from rewc.errors import ConvergenceError, DimensionError, SymmetryError
from rewc.linalg import CONVERGENCE_RTOL, _jacobi_sweeps, diag_energy_ratio, jacobi_eigh

RT2 = 1.0 / np.sqrt(2.0)


def test_analytic_2x2():
    e = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(e.S, [3.0, 1.0], atol=1e-12)
    assert np.allclose(e.U[:, 0], [RT2, RT2], atol=1e-12)
    assert np.allclose(e.U[:, 1], [RT2, -RT2], atol=1e-12)


def test_identity_canonical():
    e = jacobi_eigh(np.eye(3))
    assert np.array_equal(e.S, np.ones(3))
    assert np.array_equal(e.U, np.eye(3))


def test_reconstruction_random_psd():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(16, 16))
    a = m @ m.T
    e = jacobi_eigh(a)
    # oracle: direct multiplication
    rec = e.U @ np.diag(e.S) @ e.U.T
    assert np.max(np.abs(rec - a)) < 1e-9 * np.max(np.abs(a))


def test_orthogonality_and_order():
    rng = np.random.default_rng(3)
    for n in (2, 5, 17, 40):
        m = rng.normal(size=(n, n))
        a = m @ m.T
        e = jacobi_eigh(a)
        assert np.max(np.abs(e.U.T @ e.U - np.eye(n))) < 1e-10
        assert np.all(np.diff(e.S) <= 1e-12)


def test_psd_eigenvalue_floor():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = rng.normal(size=(12, 6))
        a = m @ m.T  # rank-deficient PSD
        e = jacobi_eigh(a)
        assert np.all(e.S >= -1e-10)


def test_sign_convention():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(9, 9))
    e = jacobi_eigh(m @ m.T)
    for j in range(9):
        lead = np.argmax(np.abs(e.U[:, j]))
        assert e.U[lead, j] >= 0.0


def test_permutation_stability():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(14, 14))
    a = m @ m.T
    perm = rng.permutation(14)
    p = np.eye(14)[perm]
    assert np.max(np.abs(jacobi_eigh(a).S - jacobi_eigh(p @ a @ p.T).S)) < 1e-10


def test_determinism():
    rng = np.random.default_rng(17)
    m = rng.normal(size=(10, 10))
    a = m @ m.T
    e1, e2 = jacobi_eigh(a), jacobi_eigh(a.copy())
    assert np.array_equal(e1.U, e2.U)
    assert np.array_equal(e1.S, e2.S)


def test_input_validation():
    with pytest.raises(DimensionError):
        jacobi_eigh(np.zeros((3, 4)))
    with pytest.raises(SymmetryError):
        jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(DimensionError):
        jacobi_eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_zero_and_single():
    e = jacobi_eigh(np.zeros((4, 4)))
    assert np.array_equal(e.S, np.zeros(4))
    e1 = jacobi_eigh(np.array([[5.0]]))
    assert e1.S[0] == 5.0 and e1.U[0, 0] == 1.0


def _relu_correlation(n=400, samples=200):
    """Input correlation of ReLU features, rank <= ``samples``.  The defaults
    match the first dense layer of LeNet on a 200-sample budget."""
    rng = np.random.default_rng(n)
    x = np.maximum(rng.normal(size=(samples, n)) @ rng.normal(size=(n, n)) / np.sqrt(n), 0.0)
    return x.T @ x / samples


def _small_relu_correlation():
    return _relu_correlation(60, 30)


def _zero_block_psd():
    """PSD matrix with an exactly zero 8x8 block: eigenvalue 0 repeated 14 times."""
    m = np.random.default_rng(21).normal(size=(12, 6))
    a = np.zeros((20, 20))
    a[:12, :12] = m @ m.T
    return a


def _assert_valid_eigh(e, a):
    n = a.shape[0]
    assert np.max(np.abs(e.U @ np.diag(e.S) @ e.U.T - a)) < 1e-9 * np.max(np.abs(a))
    assert np.max(np.abs(e.U.T @ e.U - np.eye(n))) < 1e-10
    assert np.all(np.diff(e.S) <= 0.0)


@pytest.mark.parametrize("make", [_relu_correlation, _zero_block_psd])
def test_lapack_start_matches_identity_start(make):
    a = make()
    e = jacobi_eigh(a)
    ref = _jacobi_sweeps(a, np.eye(a.shape[0]))  # the cold-start Jacobi
    assert np.max(np.abs(e.S - ref.S)) < 1e-10 * np.max(ref.S)
    _assert_valid_eigh(e, a)
    _assert_valid_eigh(ref, a)
    # Well-separated leading eigenvalues: same vectors, same sign convention.
    top = 3
    assert np.all(-np.diff(ref.S[: top + 1]) > 1e-4 * ref.S[0])
    assert np.max(np.abs(e.U[:, :top] - ref.U[:, :top])) < 1e-8


@pytest.mark.parametrize("make", [_small_relu_correlation, _zero_block_psd])
def test_sweeps_refine_a_perturbed_start(make):
    a = make()
    n = a.shape[0]
    _, v = np.linalg.eigh(a)
    q, _ = np.linalg.qr(np.eye(n) + 0.05 * np.random.default_rng(5).normal(size=(n, n)))
    start = v @ q
    w = start.T @ a @ start
    off = np.max(np.abs(w - np.diag(np.diag(w))))
    assert off > 1e6 * CONVERGENCE_RTOL * np.max(np.abs(a))
    e = _jacobi_sweeps(a, start)
    assert np.max(np.abs(e.S - np.linalg.eigvalsh(a)[::-1])) < 1e-10 * np.max(e.S)
    _assert_valid_eigh(e, a)


def test_exhausted_sweeps_raise(monkeypatch):
    a = _zero_block_psd()
    monkeypatch.setattr(linalg, "SWEEP_BUDGET", 1)
    with pytest.raises(ConvergenceError, match="residual"):
        _jacobi_sweeps(a, np.eye(a.shape[0]))


def test_energy_ratio_basics():
    assert diag_energy_ratio(np.diag([1.0, 2.0])) == 1.0
    assert diag_energy_ratio(np.array([[1.0, 1.0], [1.0, 1.0]])) == 0.5
    assert diag_energy_ratio(np.zeros((3, 3))) == 1.0
    with pytest.raises(DimensionError):
        diag_energy_ratio(np.zeros((2, 3)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
def test_energy_ratio_transpose_invariant(n, seed):
    a = np.random.default_rng(seed).normal(size=(n, n))
    assert diag_energy_ratio(a) == pytest.approx(diag_energy_ratio(a.T), rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
def test_eigh_reconstruction_property(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    a = m @ m.T
    e = jacobi_eigh(a)
    scale = max(np.max(np.abs(a)), 1e-30)
    assert np.max(np.abs(e.U @ np.diag(e.S) @ e.U.T - a)) < 1e-9 * scale
    assert np.all(e.S >= -1e-10)
