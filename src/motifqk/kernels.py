"""Classical kernels plus the geometry-based screening metrics.

``KERNEL_FIELDS`` says which ``KernelSpec`` fields each kind's formula in
``kernel_matrix`` reads; grid dedup and the CLI's flag checks use it.

The geometric difference g(Kc, Kq) and model complexity s_K quantify, from
Gram matrices alone, whether a quantum-projected kernel can separate itself
from a classical one on the same data. Both take the ``spectrum`` of each
Gram, never the Gram itself: the eigenpairs of the trace-normalized matrix
from one numpy ``eigh``, with the ridge lambda applied per call. So a Gram
is validated and decomposed once however many metrics or lambdas read it.
The cyclic Jacobi solver has no production caller; it stays because the
benchmark's ``kernels.jacobi_eigh`` span wraps it by name.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, check_count


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family and hyperparameters."""

    kind: str = "rbf"
    gamma: float | str = "scale"
    degree: int = 3
    coef0: float = 0.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ConfigError(f"kernel kind must be one of {KERNEL_KINDS}")
        if isinstance(self.gamma, str):
            if self.gamma not in ("scale", "auto"):
                raise ConfigError(
                    f"gamma must be positive or scale/auto, got {self.gamma!r}")
        elif not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ConfigError(f"gamma must be positive, got {self.gamma!r}")
        check_count(self.degree, "degree", 1)
        if not math.isfinite(self.coef0):
            raise ConfigError("coef0 must be finite")


def parse_gamma(text: str) -> float | str:
    """Kernel gamma from its config spelling: scale, auto, or a float."""
    if text in ("scale", "auto"):
        return text
    try:
        return float(text)
    except ValueError:
        raise ConfigError(
            f"gamma must be scale, auto, or a float, got {text!r}") from None


def resolve_gamma(spec: KernelSpec, X: np.ndarray) -> float:
    """Numeric gamma for a data matrix: scale = 1/(d*Var(X)), auto = 1/d.

    Zero-variance data (constant features) falls back to gamma = 1 so that
    degenerate inputs still produce a finite kernel.
    """
    X = np.asarray(X, dtype=np.float64)
    if isinstance(spec.gamma, str):
        d = X.shape[1]
        if spec.gamma == "auto":
            return 1.0 / d
        var = float(X.var())
        return 1.0 / (d * var) if var > 0 else 1.0
    return float(spec.gamma)


# two specs of one kind that agree on these give the same matrix bit for bit
KERNEL_FIELDS = {"linear": (), "poly": ("gamma", "degree", "coef0"),
                 "rbf": ("gamma",), "sigmoid": ("gamma", "coef0")}
KERNEL_KINDS = tuple(KERNEL_FIELDS)


def kernel_matrix(X, spec: KernelSpec, Y=None, gamma=None) -> np.ndarray:
    """Gram matrix K[i, j] = k(X_i, Y_j); Y defaults to X (square case).

    ``gamma`` overrides resolution from X, which matters at predict time:
    the value resolved on the training matrix must be reused for test rows.
    """
    X = np.asarray(X, dtype=np.float64)
    square = Y is None
    Y = X if square else np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[1] != Y.shape[1]:
        raise DataError("kernel inputs must be 2-D with matching width")
    g = resolve_gamma(spec, X) if gamma is None else float(gamma)
    # overflow surfaces as the finiteness error below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "linear":
            K = X @ Y.T
        elif spec.kind == "rbf":
            nx = np.sum(X * X, axis=1)
            ny = nx if square else np.sum(Y * Y, axis=1)
            sq = nx[:, None] + ny[None, :] - 2.0 * (X @ Y.T)
            K = np.exp(-g * np.maximum(sq, 0.0))
        elif spec.kind == "poly":
            K = (g * (X @ Y.T) + spec.coef0) ** spec.degree
        else:
            K = np.tanh(g * (X @ Y.T) + spec.coef0)
    if np.count_nonzero(np.isfinite(K)) != K.size:  # a cheaper .all()
        raise DataError("kernel matrix has non-finite entries")
    if square:
        K = (K + K.T) / 2.0
    return K


def check_kernel_matrix(K) -> np.ndarray:
    """Validate a square symmetric finite Gram matrix; returns float64 copy."""
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] == 0:
        raise DataError("kernel matrix must be square and nonempty")
    if not np.isfinite(K).all():
        raise DataError("kernel matrix has non-finite entries")
    if np.abs(K - K.T).max() > 1e-10:
        raise DataError("kernel matrix is not symmetric within 1e-10")
    return (K + K.T) / 2.0


def jacobi_eigh(A, tol: float = 1e-12, max_sweeps: int = 60):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Kept as a reference and for the benchmark span named after it. Returns
    (w, V) with A = V @ diag(w) @ V.T; eigenvalues are unsorted. Sweeps run
    until the off-diagonal Frobenius mass falls below tol * ||A||_F.
    """
    A = check_kernel_matrix(A).copy()
    n = A.shape[0]
    V = np.eye(n)
    fro = math.sqrt(float((A * A).sum()))
    if n == 1 or fro == 0.0:
        return np.diag(A).copy(), V
    thresh = tol * fro
    skip = thresh / n
    for _ in range(max_sweeps):
        off = math.sqrt(2.0 * float((np.triu(A, 1) ** 2).sum()))
        if off <= thresh:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= skip:
                    continue
                app, aqq = A[p, p], A[q, q]
                tau = (aqq - app) / (2.0 * apq)
                sign = 1.0 if tau >= 0 else -1.0
                t = sign / (abs(tau) + math.sqrt(tau * tau + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                vp, vq = A[:, p].copy(), A[:, q].copy()
                new_p = c * vp - s * vq
                new_q = s * vp + c * vq
                A[:, p] = new_p
                A[p, :] = new_p
                A[:, q] = new_q
                A[q, :] = new_q
                A[p, p] = app - t * apq
                A[q, q] = aqq + t * apq
                A[p, q] = A[q, p] = 0.0
                wp, wq = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * wp - s * wq
                V[:, q] = s * wp + c * wq
    else:
        warnings.warn("jacobi_eigh hit max_sweeps before reaching tolerance",
                      RuntimeWarning)
    return np.diag(A).copy(), V


def check_lam(lam: float) -> None:
    """Reject a ridge lambda for g and s_K that is negative or not finite."""
    if not (math.isfinite(lam) and lam >= 0):
        raise ConfigError("lam must be finite and >= 0")


@dataclass(frozen=True)
class Spectrum:
    """Eigenpairs of a trace-normalized PSD Gram matrix: ascending
    eigenvalues ``w`` and eigenvectors ``V`` (columns), as ``eigh`` gives."""

    w: np.ndarray
    V: np.ndarray


def spectrum(K) -> Spectrum:
    """The one ``eigh`` of a Gram matrix that g and s_K share.

    K must be square, symmetric, finite and PSD; it is rescaled to trace N,
    the convention behind g and s_K values, before one ``eigh``.
    """
    K = check_kernel_matrix(K)
    tr = float(np.trace(K))
    if tr <= 0:
        raise DataError("kernel trace must be positive to normalize")
    w, V = np.linalg.eigh(K * (K.shape[0] / tr))
    if w[0] < -1e-8:
        raise DataError(f"matrix is not PSD (eigenvalue {w[0]:.3e} < -1e-8)")
    return Spectrum(w, V)


def check_ridge(s: Spectrum, lam: float) -> None:
    """Reject a bad lam, then a singular K + lam I."""
    check_lam(lam)
    if s.w[0] + lam <= 1e-12:
        raise DataError("K + lam*I is singular; use a positive lam")


def geometric_difference(c: Spectrum, q: Spectrum, lam: float = 0.0) -> float:
    """g(Kc, Kq) = sqrt ||sqrt(Kq) sqrt(Kc) (Kc + lam I)^-2 sqrt(Kc) sqrt(Kq)||
    on the ``spectrum`` of each Gram, so both are trace-normalized to N.

    Large values (on the order of sqrt(N)) mean the classical kernel cannot
    mimic the quantum geometry; small values mean a classical model should
    match.

    The matrix in the norm is Vq A^T A Vq^T for A = diag(sqrt(d)) Vc^T Vq
    diag(sqrt(wq)), d = wc / (wc + lam)^2, both spectra clipped at zero; its
    largest eigenvalue is that of the symmetric A A^T.
    """
    check_ridge(c, lam)
    if c.V.shape != q.V.shape:
        raise DataError("kernel matrices must have identical shape")
    d = np.clip(c.w, 0.0, None) / (c.w + lam) ** 2
    A = np.sqrt(d)[:, None] * (c.V.T @ q.V) * np.sqrt(np.clip(q.w, 0.0, None))
    return math.sqrt(max(float(np.linalg.eigvalsh(A @ A.T)[-1]), 0.0))


def model_complexity(s: Spectrum, y, lam: float = 0.0) -> float:
    """s_K = sqrt(lam^2 y^T (K+lam I)^-2 y / N) + sqrt(y^T (K+lam I)^-1 K
    (K+lam I)^-1 y / N) on the trace-normalized kernel of a ``spectrum``.

    Values near sqrt(N) mean the kernel needs about one support vector per
    sample (no generalization); small values mean the labels are easy for
    this geometry.
    """
    check_ridge(s, lam)
    N = len(s.w)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (N,):
        raise DataError("label vector length must match the kernel")
    u = s.V.T @ y
    denom = (s.w + lam) ** 2
    t1 = lam * lam * float((u * u / denom).sum()) / N
    t2 = float((u * u * s.w / denom).sum()) / N
    return math.sqrt(max(t1, 0.0)) + math.sqrt(max(t2, 0.0))
