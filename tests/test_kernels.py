"""Kernel, eigensolver, and screening-metric tests.

The metric oracles below evaluate the textbook formulas with dense numpy
inverses; the package's own Jacobi solver is checked against numpy. The
metrics take the ``spectrum`` of each Gram, so every metric test makes
that one ``eigh`` first.
"""

import dataclasses
import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifqk import evaluation, kernels
from motifqk.data import Construct, encode_dataset
from motifqk.errors import ConfigError, DataError
from motifqk.evaluation import screen_advantage
from motifqk.kernels import (
    KERNEL_FIELDS,
    KernelSpec,
    geometric_difference,
    jacobi_eigh,
    kernel_matrix,
    model_complexity,
    resolve_gamma,
    spectrum,
)

README_LAMBDAS = (0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


def _random_psd(rng, n, rank=None):
    b = rng.normal(size=(n, rank or n))
    return b @ b.T


def _one_hot_screen_inputs(rng):
    """(bits, features, y) shaped like the real screen: the 169 distinct
    two-motif constructs, Bloch-ball features (61 qubits), +-1 labels."""
    motifs = [f"M{i}" for i in range(1, 14)]
    bits = encode_dataset([Construct(ms, 0.5) for ms in
                           itertools.product(motifs, repeat=2)]).bits
    n = bits.shape[0]
    v = rng.normal(size=(n, 61, 3))
    v *= rng.uniform(0.0, 1.0, (n, 61, 1)) / np.linalg.norm(v, axis=2,
                                                           keepdims=True)
    y = np.where(rng.integers(0, 2, n) == 0, -1.0, 1.0)
    return bits, v.reshape(n, -1), y


def _one_hot_screen(rng):
    """(Kc, Kq, y) of ``_one_hot_screen_inputs`` with rbf-scale Grams; the
    one-hot Gram's spectrum has only three distinct eigenvalues."""
    bits, features, y = _one_hot_screen_inputs(rng)
    spec = KernelSpec(kind="rbf", gamma="scale")
    return kernel_matrix(bits, spec), kernel_matrix(features, spec), y


def _count_calls(monkeypatch, module, *names):
    """Spy on module functions; returns the live name -> call-count dict."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    return counts


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
    for degree in (0, True, 2.0, np.int64(2)):
        with pytest.raises(ConfigError,
                           match="^degree must be an int >= 1, got "):
            KernelSpec(kind="poly", degree=degree)


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


def _bloch_rows(n, seed):
    """``make_bloch_features`` rows of the benchmark's screen workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_bloch_features(n, 61, seed)


@pytest.mark.parametrize("gamma", ["scale", "auto", 1.0])
def test_square_rbf_gram_bytes_are_pinned(rng, gamma):
    # the two-norm expansion with both row norms summed separately, clipped
    # at zero, exponentiated and symmetrised: the Gram every score rests on
    bits, _, _ = _one_hot_screen_inputs(rng)
    one_hot = bits[:40].astype(np.float64)
    one_hot[7] = one_hot[3]  # a repeated row: its squared distance is 0
    for X in (one_hot, _bloch_rows(30, 5), rng.normal(size=(25, 6))):
        g = resolve_gamma(KernelSpec(kind="rbf", gamma=gamma), X)
        sq = (np.sum(X * X, axis=1)[:, None]
              + np.sum(X * X, axis=1)[None, :] - 2.0 * (X @ X.T))
        want = np.exp(-g * np.clip(sq, 0.0, None))
        want = (want + want.T) / 2.0
        got = kernel_matrix(X, KernelSpec(kind="rbf", gamma=gamma))
        assert got.tobytes() == want.tobytes()


def test_kernel_matrix_rejects_nonfinite():
    X = np.array([[1e300, 1e300]])
    with pytest.raises(DataError):
        kernel_matrix(X, KernelSpec(kind="linear"))


@pytest.mark.parametrize("kind", sorted(KERNEL_FIELDS))
def test_kernel_fields_are_the_fields_kernel_matrix_reads(rng, kind):
    # grid dedup shares the scores of candidates that agree on the listed
    # fields, which is exact only if no other field moves the matrix
    X = 0.3 * rng.normal(size=(6, 4))
    base = KernelSpec(kind, gamma=0.5, degree=3, coef0=0.5)
    K = kernel_matrix(X, base)
    for field, value in (("gamma", 0.7), ("degree", 2), ("coef0", 1.0)):
        other = kernel_matrix(X, dataclasses.replace(base, **{field: value}))
        assert np.array_equal(other, K) == (field not in KERNEL_FIELDS[kind])


def test_trace_normalized():
    # spectrum decomposes the Gram rescaled to trace N
    K = np.diag([1.0, 2.0, 3.0])
    assert spectrum(K).w.sum() == pytest.approx(3.0)
    with pytest.raises(DataError, match="trace must be positive"):
        spectrum(np.zeros((2, 2)))


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


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 10.0])
def test_geometric_difference_identity_closed_form(lam):
    s = spectrum(np.eye(12))
    assert geometric_difference(s, s, lam) == pytest.approx(1.0 / (1.0 + lam),
                                                            abs=1e-12)


def test_geometric_difference_equal_kernels(rng):
    K = _random_psd(rng, 8)
    lam = 0.7
    w = np.linalg.eigvalsh(8 * K / np.trace(K))
    want = math.sqrt((np.clip(w, 0, None) / (w + lam) ** 2 * w).max())
    s = spectrum(K)
    assert geometric_difference(s, s, lam) == pytest.approx(want, abs=1e-8)


def test_geometric_difference_oracle(rng):
    pairs = [(_random_psd(rng, 10), _random_psd(rng, 10)) for _ in range(5)]
    one_hot_kc, bloch_kq, _ = _one_hot_screen(rng)
    for Kc, Kq in pairs + [(one_hot_kc, bloch_kq)]:
        for lam in (0.1, 1.0, 5.0):
            mine = geometric_difference(spectrum(Kc), spectrum(Kq), lam)
            want = _oracle_geometric_difference(Kc, Kq, lam)
            assert mine == pytest.approx(want, abs=1e-8)


def test_geometric_difference_clips_the_pqk_spectrum(rng):
    # Kq: rows 1, 3, 5 and 7 repeat rows 0, 2, 4 and 6; the first two pairs
    # keep their exact zero eigenvalues, the last two are pushed just below
    # zero, within spectrum's -1e-8; lam = 0 against a nonsingular Kc
    n = 12
    F = rng.normal(size=(n, 4))
    F[[1, 3, 5, 7]] = F[[0, 2, 4, 6]]
    Kq = kernel_matrix(F, KernelSpec(kind="rbf", gamma=0.5))
    for i, eps in ((4, 6e-9), (6, 1e-9)):
        u = np.zeros(n)
        u[i], u[i + 1] = 1.0, -1.0
        Kq -= eps / 2 * np.outer(u, u)  # eigenvalue -eps along u
    Kc = _random_psd(rng, n) + np.eye(n)
    q = spectrum(Kq)
    assert -1e-8 <= q.w[0] < q.w[1] < 0  # the clipped negative eigenvalues
    assert (np.abs(q.w) < 1e-12).sum() >= 2  # and the repeated rows' zeros
    want = _oracle_geometric_difference(Kc, Kq, 0.0)
    assert geometric_difference(spectrum(Kc), q, 0.0) \
        == pytest.approx(want, rel=0, abs=1e-10)


def test_geometric_difference_monotone_in_lambda(rng):
    Kc = _random_psd(rng, 8)
    Kq = _random_psd(rng, 8)
    lams = [0.01, 0.1, 1.0, 10.0]
    c, q = spectrum(Kc), spectrum(Kq)
    vals = [geometric_difference(c, q, lam) for lam in lams]
    assert all(a >= b - 1e-10 for a, b in zip(vals, vals[1:]))


def test_geometric_difference_permutation_invariant(rng):
    Kc = _random_psd(rng, 7)
    Kq = _random_psd(rng, 7)
    perm = rng.permutation(7)
    P = np.eye(7)[perm]
    a = geometric_difference(spectrum(Kc), spectrum(Kq), 0.5)
    b = geometric_difference(spectrum(P @ Kc @ P.T), spectrum(P @ Kq @ P.T),
                             0.5)
    assert a == pytest.approx(b, abs=1e-8)


def test_geometric_difference_singular_guard():
    Kc = np.zeros((3, 3))
    Kc[0, 0] = 3.0  # rank 1, singular at lam=0
    with pytest.raises(DataError, match="singular"):
        geometric_difference(spectrum(Kc), spectrum(np.eye(3)), 0.0)


def test_geometric_difference_rejects_non_psd():
    bad = np.diag([2.0, -1.0])
    bad = bad + bad.T  # symmetric, indefinite
    with pytest.raises(DataError, match="not PSD"):
        geometric_difference(spectrum(bad), spectrum(np.eye(2)), 1.0)


def test_model_complexity_identity_closed_form(rng):
    for n in (4, 50, 172):
        y = np.where(rng.integers(0, 2, n) == 0, -1.0, 1.0)
        assert model_complexity(spectrum(np.eye(n)), y, 0.0) \
            == pytest.approx(1.0, abs=1e-12)


def test_model_complexity_oracle(rng):
    cases = [(_random_psd(rng, 9),
              np.where(rng.integers(0, 2, 9) == 0, -1.0, 1.0))
             for _ in range(5)]
    one_hot_kc, bloch_kq, labels = _one_hot_screen(rng)
    for K, y in cases + [(one_hot_kc, labels), (bloch_kq, labels)]:
        for lam in (0.0, 0.5, 2.0):
            mine = model_complexity(spectrum(K), y, lam)
            want = _oracle_model_complexity(K, y, lam)
            assert mine == pytest.approx(want, abs=1e-8)


def test_model_complexity_scale_invariant(rng):
    K = _random_psd(rng, 6)
    y = np.where(rng.integers(0, 2, 6) == 0, -1.0, 1.0)
    a = model_complexity(spectrum(K), y, 0.3)
    b = model_complexity(spectrum(5.0 * K), y, 0.3)
    assert a == pytest.approx(b, abs=1e-10)


def test_model_complexity_singular_guard():
    K = np.zeros((3, 3))
    K[0, 0] = 3.0
    y = np.array([1.0, -1.0, 1.0])
    with pytest.raises(DataError, match="singular"):
        model_complexity(spectrum(K), y, 0.0)


def test_screen_advantage_matches_the_gram_matrix_calls(rng):
    # the screen gives exactly the metrics on the spectra of its two Grams
    bits, features, y = _one_hot_screen_inputs(rng)
    spec = KernelSpec(kind="rbf", gamma="scale")
    c = spectrum(kernel_matrix(bits, spec))
    q = spectrum(kernel_matrix(features, spec))
    for lam in README_LAMBDAS:
        out = screen_advantage(bits, y, features, spec, lam)
        assert out["g_cq"] == geometric_difference(c, q, lam)
        assert out["s_classical"] == model_complexity(c, y, lam)
        assert out["s_pqk"] == model_complexity(q, y, lam)


def test_screen_advantage_decomposes_each_gram_once(rng, monkeypatch):
    bits, features, y = _one_hot_screen_inputs(rng)
    counts = _count_calls(monkeypatch, np.linalg, "eigh", "eigvalsh")
    screen_advantage(bits, y, features, KernelSpec(kind="rbf"), 1.0)
    assert counts == {"eigh": 2, "eigvalsh": 1}


def test_screen_advantage_checks_each_gram_once(rng, monkeypatch):
    bits, features, y = _one_hot_screen_inputs(rng)
    counts = _count_calls(monkeypatch, kernels, "check_kernel_matrix")
    screen_advantage(bits, y, features, KernelSpec(kind="rbf"), 1.0)
    assert counts == {"check_kernel_matrix": 2}
    # spectrum checks each Gram once; the metrics on spectra check none
    counts["check_kernel_matrix"] = 0
    Kc, Kq, y = _one_hot_screen(rng)
    c, q = spectrum(Kc), spectrum(Kq)
    assert counts == {"check_kernel_matrix": 2}
    for lam in README_LAMBDAS:
        geometric_difference(c, q, lam)
        model_complexity(c, y, lam)
    assert counts == {"check_kernel_matrix": 2}


@pytest.mark.parametrize("lam", [-1.0, float("nan")])
def test_screen_advantage_rejects_bad_lam_before_any_eigh(rng, monkeypatch,
                                                          lam):
    bits, features, y = _one_hot_screen_inputs(rng)
    counts = _count_calls(monkeypatch, np.linalg, "eigh")
    with pytest.raises(ConfigError, match="lam must be finite and >= 0"):
        screen_advantage(bits, y, features, KernelSpec(kind="rbf"), lam)
    assert counts == {"eigh": 0}


def test_screen_advantage_singular_pqk_gram_fails_in_s_pqk(rng, monkeypatch):
    bits, features, y = _one_hot_screen_inputs(rng)
    features[1] = features[0]  # a repeated row makes Kq singular
    counts = _count_calls(monkeypatch, evaluation, "model_complexity")
    with pytest.raises(DataError, match=r"K \+ lam\*I is singular"):
        screen_advantage(bits, y, features, KernelSpec(kind="rbf"), 0.0)
    assert counts == {"model_complexity": 2}  # s_classical passed


def test_screen_advantage_singular_classical_gram_fails_first(rng,
                                                              monkeypatch):
    bits, features, y = _one_hot_screen_inputs(rng)
    bits = bits.copy()
    bits[1] = bits[0]  # a repeated row makes Kc singular
    counts = _count_calls(monkeypatch, np.linalg, "eigh")
    with pytest.raises(DataError, match=r"K \+ lam\*I is singular"):
        screen_advantage(bits, y, features, KernelSpec(kind="rbf"), 0.0)
    assert counts == {"eigh": 1}  # Kq was never decomposed


def test_screen_advantage_rejects_indefinite_gram(rng):
    bits, _, y = _one_hot_screen_inputs(rng)
    spec = KernelSpec(kind="sigmoid", gamma=1.0, coef0=-1.0)
    assert np.linalg.eigvalsh(kernel_matrix(bits, spec))[0] < -1e-8
    with pytest.raises(DataError, match="not PSD"):
        screen_advantage(bits, y, bits, spec, 1.0)


def test_metrics_on_a_spectrum_raise_as_on_the_gram():
    # every check of the metrics, with its type and message
    s3 = spectrum(np.eye(3))
    singular = spectrum(np.diag([3.0, 0.0, 0.0]))
    cases = [
        (lambda: model_complexity(s3, np.ones(4), 1.0), DataError,
         "label vector length must match the kernel"),
        (lambda: geometric_difference(s3, spectrum(np.eye(4)), 1.0),
         DataError, "kernel matrices must have identical shape"),
        (lambda: geometric_difference(spectrum(np.eye(4)), s3, 1.0),
         DataError, "kernel matrices must have identical shape"),
        (lambda: model_complexity(s3, np.ones(3), -1.0), ConfigError,
         "lam must be finite and >= 0"),
        (lambda: geometric_difference(s3, s3, float("nan")), ConfigError,
         "lam must be finite and >= 0"),
        (lambda: model_complexity(singular, np.ones(3), 0.0), DataError,
         r"K \+ lam\*I is singular; use a positive lam"),
        (lambda: geometric_difference(singular, s3, 0.0), DataError,
         r"K \+ lam\*I is singular; use a positive lam"),
        # lam is checked before the ridge it would make singular
        (lambda: model_complexity(singular, np.ones(3), -1.0), ConfigError,
         "lam must be finite and >= 0"),
        (lambda: geometric_difference(singular, s3, -1.0), ConfigError,
         "lam must be finite and >= 0"),
    ]
    for call, error, message in cases:
        with pytest.raises(error, match=f"^{message}$"):
            call()
    with pytest.raises(DataError, match="not PSD"):
        spectrum(np.diag([1.0, -0.5]))


def test_metric_shape_validation():
    s3 = spectrum(np.eye(3))
    with pytest.raises(DataError):
        geometric_difference(s3, spectrum(np.eye(4)), 1.0)
    with pytest.raises(DataError):
        model_complexity(s3, np.ones(4), 1.0)
    with pytest.raises(ConfigError):
        geometric_difference(s3, s3, -1.0)
