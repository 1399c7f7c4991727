"""Kernel, eigensolver, and screening-metric tests.

scipy/numpy linear algebra is used only as an independent oracle here;
the package itself never calls it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifqk.errors import ConfigError, DataError
from motifqk.kernels import (
    KernelSpec,
    geometric_difference,
    jacobi_eigh,
    kernel_matrix,
    model_complexity,
    psd_sqrt,
    resolve_gamma,
    trace_normalized,
)


def _random_psd(rng, n, rank=None):
    b = rng.normal(size=(n, rank or n))
    return b @ b.T


def _oracle_geometric_difference(Kc, Kq, lam):
    """Direct dense evaluation with numpy inverses and eigensolver."""
    n = Kc.shape[0]
    Kc = n * Kc / np.trace(Kc)
    Kq = n * Kq / np.trace(Kq)
    sq = _oracle_sqrt(Kq)
    inv = np.linalg.inv(Kc + lam * np.eye(n))
    m = sq @ inv @ Kc @ inv @ sq
    return math.sqrt(max(np.linalg.eigvalsh((m + m.T) / 2).max(), 0.0))


def _oracle_sqrt(K):
    w, v = np.linalg.eigh(K)
    return v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T


def _oracle_model_complexity(K, y, lam):
    n = K.shape[0]
    K = n * K / np.trace(K)
    inv = np.linalg.inv(K + lam * np.eye(n))
    t1 = math.sqrt(lam * lam * float(y @ inv @ inv @ y) / n)
    t2 = math.sqrt(float(y @ inv @ K @ inv @ y) / n)
    return t1 + t2


def test_kernel_spec_validation():
    KernelSpec(kind="rbf", gamma="scale")
    with pytest.raises(ConfigError):
        KernelSpec(kind="laplace")
    with pytest.raises(ConfigError):
        KernelSpec(kind="rbf", gamma=-1.0)
    with pytest.raises(ConfigError):
        KernelSpec(kind="poly", degree=0)


def test_resolve_gamma():
    X = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert resolve_gamma(KernelSpec(kind="rbf", gamma="auto"), X) == pytest.approx(0.5)
    assert resolve_gamma(KernelSpec(kind="rbf", gamma="scale"), X) == pytest.approx(
        1.0 / (2 * X.var()))
    assert resolve_gamma(KernelSpec(kind="rbf", gamma=0.25), X) == 0.25
    flat = np.ones((3, 4))
    assert resolve_gamma(KernelSpec(kind="rbf", gamma="scale"), flat) == 1.0


def test_rbf_kernel_values(rng):
    X = rng.normal(size=(5, 3))
    spec = KernelSpec(kind="rbf", gamma=0.7)
    K = kernel_matrix(X, spec)
    assert np.allclose(np.diag(K), 1.0)
    d2 = ((X[0] - X[1]) ** 2).sum()
    assert K[0, 1] == pytest.approx(math.exp(-0.7 * d2))
    assert np.allclose(K, K.T)


def test_linear_kernel_values(rng):
    X = rng.normal(size=(4, 3))
    K = kernel_matrix(X, KernelSpec(kind="linear"))
    assert np.allclose(K, X @ X.T)


def test_poly_kernel_values(rng):
    X = rng.normal(size=(3, 2))
    spec = KernelSpec(kind="poly", gamma=0.5, degree=3, coef0=1.5)
    K = kernel_matrix(X, spec)
    want = (0.5 * (X @ X.T) + 1.5) ** 3
    assert np.allclose(K, want)


def test_sigmoid_kernel_values(rng):
    X = rng.normal(size=(3, 2))
    spec = KernelSpec(kind="sigmoid", gamma=0.3, coef0=-0.2)
    K = kernel_matrix(X, spec)
    want = np.tanh(0.3 * (X @ X.T) - 0.2)
    assert np.allclose(K, want)


def test_rectangular_kernel(rng):
    X = rng.normal(size=(4, 3))
    Y = rng.normal(size=(2, 3))
    K = kernel_matrix(X, KernelSpec(kind="rbf", gamma=1.0), Y=Y)
    assert K.shape == (4, 2)
    for i in range(4):
        for j in range(2):
            d2 = ((X[i] - Y[j]) ** 2).sum()
            assert K[i, j] == pytest.approx(math.exp(-d2))


def test_kernel_matrix_rejects_nonfinite():
    X = np.array([[1e300, 1e300]])
    with pytest.raises(DataError):
        kernel_matrix(X, KernelSpec(kind="linear"))


def test_trace_normalized():
    K = np.diag([1.0, 2.0, 3.0])
    T = trace_normalized(K)
    assert np.trace(T) == pytest.approx(3.0)
    with pytest.raises(DataError):
        trace_normalized(np.zeros((2, 2)))


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_jacobi_matches_numpy(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A = (A + A.T) / 2
    w, V = jacobi_eigh(A)
    assert np.allclose(np.sort(w), np.linalg.eigvalsh(A), atol=1e-9)
    assert np.allclose(V @ np.diag(w) @ V.T, A, atol=1e-9)
    assert np.allclose(V.T @ V, np.eye(n), atol=1e-9)


def test_jacobi_diagonal_is_fixed_point():
    w, V = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(np.sort(w), [-1.0, 2.0, 3.0])
    assert np.allclose(np.abs(V), np.eye(3))


def test_psd_sqrt_squares_back(rng):
    K = _random_psd(rng, 5)
    S = psd_sqrt(K)
    assert np.allclose(S @ S, K, atol=1e-8)
    assert np.allclose(S, S.T)


def test_psd_sqrt_identity():
    assert np.allclose(psd_sqrt(np.eye(4)), np.eye(4))


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(DataError):
        psd_sqrt(np.diag([1.0, -0.5]))


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 10.0])
def test_geometric_difference_identity_closed_form(lam):
    K = np.eye(12)
    assert geometric_difference(K, K, lam) == pytest.approx(1.0 / (1.0 + lam),
                                                            abs=1e-12)


def test_geometric_difference_equal_kernels(rng):
    K = _random_psd(rng, 8)
    lam = 0.7
    w = np.linalg.eigvalsh(8 * K / np.trace(K))
    want = math.sqrt((np.clip(w, 0, None) / (w + lam) ** 2 * w).max())
    assert geometric_difference(K, K, lam) == pytest.approx(want, abs=1e-8)


def test_geometric_difference_oracle(rng):
    for _ in range(5):
        Kc = _random_psd(rng, 10)
        Kq = _random_psd(rng, 10)
        for lam in (0.1, 1.0, 5.0):
            mine = geometric_difference(Kc, Kq, lam)
            want = _oracle_geometric_difference(Kc, Kq, lam)
            assert mine == pytest.approx(want, abs=1e-8)


def test_geometric_difference_monotone_in_lambda(rng):
    Kc = _random_psd(rng, 8)
    Kq = _random_psd(rng, 8)
    lams = [0.01, 0.1, 1.0, 10.0]
    vals = [geometric_difference(Kc, Kq, lam) for lam in lams]
    assert all(a >= b - 1e-10 for a, b in zip(vals, vals[1:]))


def test_geometric_difference_permutation_invariant(rng):
    Kc = _random_psd(rng, 7)
    Kq = _random_psd(rng, 7)
    perm = rng.permutation(7)
    P = np.eye(7)[perm]
    a = geometric_difference(Kc, Kq, 0.5)
    b = geometric_difference(P @ Kc @ P.T, P @ Kq @ P.T, 0.5)
    assert a == pytest.approx(b, abs=1e-8)


def test_geometric_difference_singular_guard():
    Kc = np.zeros((3, 3))
    Kc[0, 0] = 3.0  # rank 1, singular at lam=0
    with pytest.raises(DataError):
        geometric_difference(Kc, np.eye(3), 0.0)


def test_geometric_difference_rejects_non_psd():
    bad = np.diag([2.0, -1.0])
    bad = bad + bad.T  # symmetric, indefinite
    with pytest.raises(DataError):
        geometric_difference(bad, np.eye(2), 1.0)


def test_model_complexity_identity_closed_form(rng):
    for n in (4, 50, 172):
        y = np.where(rng.integers(0, 2, n) == 0, -1.0, 1.0)
        assert model_complexity(np.eye(n), y, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_model_complexity_oracle(rng):
    for _ in range(5):
        K = _random_psd(rng, 9)
        y = np.where(rng.integers(0, 2, 9) == 0, -1.0, 1.0)
        for lam in (0.0, 0.5, 2.0):
            mine = model_complexity(K, y, lam)
            want = _oracle_model_complexity(K, y, lam)
            assert mine == pytest.approx(want, abs=1e-8)


def test_model_complexity_scale_invariant(rng):
    K = _random_psd(rng, 6)
    y = np.where(rng.integers(0, 2, 6) == 0, -1.0, 1.0)
    a = model_complexity(K, y, 0.3)
    b = model_complexity(5.0 * K, y, 0.3)
    assert a == pytest.approx(b, abs=1e-10)


def test_model_complexity_singular_guard():
    K = np.zeros((3, 3))
    K[0, 0] = 3.0
    y = np.array([1.0, -1.0, 1.0])
    with pytest.raises(DataError):
        model_complexity(K, y, 0.0)


def test_metric_shape_validation():
    with pytest.raises(DataError):
        geometric_difference(np.eye(3), np.eye(4), 1.0)
    with pytest.raises(DataError):
        model_complexity(np.eye(3), np.ones(4), 1.0)
    with pytest.raises(ConfigError):
        geometric_difference(np.eye(3), np.eye(3), -1.0)
