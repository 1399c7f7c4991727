"""Projected-feature extraction: embed each sample, read out every 1-RDM.

For an n-qubit embedding the feature row is (X_0, Y_0, Z_0, X_1, ...): all
3n single-qubit Pauli expectations of the embedded state. Backends: exact
statevector readout (``statevector.bloch_vectors``, optionally with
binomial shot noise), which simulates each CX-connected cluster of the
simplified circuit on its own and so serves any width whose largest
cluster fits under statevector.DEFAULT_QUBIT_CAP qubits; and noise-free
operator backpropagation up to 64 qubits. Backpropagation reads a
sample's 3n observables in one pass, as one stack (see pauliprop).

Truncated backpropagation estimates each expectation with bounded error,
which can leave a per-qubit triple slightly outside the unit Bloch ball;
such triples are projected radially back onto the ball, which never moves
an estimate away from the true reduced state.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BackendError, ConfigError, DataError
from . import statevector as sv
from .circuits import Circuit
from .circuits import build_heisenberg_embedding, build_zz_feature_map
from .pauliprop import ObservableSum, PauliString, backpropagate_observable, \
    obp_expectations

logger = logging.getLogger(__name__)

BASES = ("X", "Y", "Z")
PRODUCTION_REPS = (4, 6, 8, 12)
PRODUCTION_STEPS = (4, 6)
PRODUCTION_SCALES = (math.pi, math.pi / 2)
BLOCH_TOL = 1e-9


def parse_scale(text: str) -> float:
    """Rotation scale from its config spelling: pi, pi2 (pi/2), or a float."""
    if text == "pi":
        return math.pi
    if text == "pi2":
        return math.pi / 2
    try:
        return float(text)
    except ValueError:
        raise ConfigError(
            f"scale must be pi, pi2, or a float, got {text!r}") from None


@dataclass(frozen=True)
class EmbeddingConfig:
    """Which embedding to build and with what parameters.

    ``reps``, ``steps`` and ``seed`` are None when not given. E1 needs
    ``reps``, E2 ``steps`` and ``seed`` (its RY layer); neither takes more.
    Both kinds couple the qubits of a linear chain. Production settings are
    enforced unless ``test_mode`` is set: E1 repetitions in {4, 6, 8, 12},
    E2 Trotter steps in {4, 6}, scale pi or pi/2. ``test_mode`` additionally
    allows ``reps=0``, the identity embedding (features are the fixed |0>
    Bloch vectors).

    ``descriptor()`` keys the feature cache and the report's config hash;
    keep its text, including the E1 suffix ``:ent=linear``.
    """

    kind: str
    reps: int | None = None
    steps: int | None = None
    scale: float = math.pi / 2
    seed: int | None = None
    test_mode: bool = False

    def __post_init__(self):
        if self.kind not in ("e1", "e2"):
            raise ConfigError(f"embedding kind must be e1 or e2, got {self.kind!r}")
        reads = ("reps",) if self.kind == "e1" else ("steps", "seed")
        for name in ("reps", "steps", "seed"):
            if getattr(self, name) is None and name in reads:
                raise ConfigError(f"embedding kind {self.kind} needs {name}")
            if getattr(self, name) is not None and name not in reads:
                raise ConfigError(
                    f"embedding kind {self.kind} does not read {name}")
        if self.kind == "e1":
            if self.reps < 0 or (self.reps == 0 and not self.test_mode):
                raise ConfigError("e1 needs reps >= 1")
            if not self.test_mode and self.reps not in PRODUCTION_REPS:
                raise ConfigError(
                    f"e1 reps must be one of {PRODUCTION_REPS} (or set test_mode)")
        else:
            if self.steps < 1:
                raise ConfigError("e2 needs steps >= 1")
            if not self.test_mode and self.steps not in PRODUCTION_STEPS:
                raise ConfigError(
                    f"e2 steps must be one of {PRODUCTION_STEPS} (or set test_mode)")
        if not self.test_mode and self.scale not in PRODUCTION_SCALES:
            raise ConfigError("scale must be pi or pi/2 (or set test_mode)")

    def n_qubits(self, n_features: int) -> int:
        return n_features if self.kind == "e1" else n_features + 1

    def build(self, x) -> Circuit:
        if self.kind == "e1":
            if self.reps == 0:
                return Circuit(len(x), ())
            return build_zz_feature_map(x, self.reps, self.scale)
        return build_heisenberg_embedding(x, self.steps, self.scale, self.seed)

    def descriptor(self) -> str:
        if self.kind == "e1":
            return f"e1:reps={self.reps}:scale={self.scale!r}:ent=linear"
        return f"e2:steps={self.steps}:scale={self.scale!r}:seed={self.seed}"


@dataclass(frozen=True)
class BackendConfig:
    """Readout backend: ``exact``, ``shots:<n>``, or ``obp:<threshold>``.

    ``shots`` and ``seed`` belong to the shots kind alone, which needs both;
    ``seed`` is None when not given, and exact and obp reject any seed, 0
    included. ``descriptor()`` keys the feature cache and the report's
    config hash; keep its text.
    """

    kind: str
    shots: int = 0
    seed: int | None = None
    threshold: float = 0.0

    def __post_init__(self):
        if self.kind not in ("exact", "shots", "obp"):
            raise ConfigError(f"unknown backend kind {self.kind!r}")
        if self.kind == "shots" and self.shots < 1:
            raise ConfigError("shots backend needs shots >= 1")
        if self.kind == "shots" and self.seed is None:
            raise ConfigError("shots backend needs a seed")
        if self.kind != "shots" and (self.shots or self.seed is not None):
            raise ConfigError(
                f"shots and seed apply to the shots backend, not {self.kind}")
        if self.kind == "obp" and not (math.isfinite(self.threshold)
                                       and self.threshold >= 0):
            raise ConfigError("obp threshold must be finite and >= 0")

    @classmethod
    def parse(cls, text: str, seed: int | None = None) -> "BackendConfig":
        parts = text.split(":")
        try:
            if parts[0] == "exact" and len(parts) == 1:
                return cls("exact", seed=seed)
            if parts[0] == "shots" and len(parts) == 2:
                return cls("shots", shots=int(parts[1]), seed=seed)
            if parts[0] == "obp" and len(parts) == 2:
                return cls("obp", threshold=float(parts[1]), seed=seed)
        except ValueError:
            pass
        raise ConfigError(
            f"backend must be exact, shots:<n>, or obp:<threshold>, got {text!r}")

    def descriptor(self) -> str:
        if self.kind == "exact":
            return "exact"
        if self.kind == "shots":
            return f"shots:{self.shots}:seed={self.seed}"
        return f"obp:{self.threshold!r}"


def feature_names(n_qubits: int) -> list[str]:
    return [f"q{q}_{b}" for q in range(n_qubits) for b in BASES]


def _shot_seed(master: int, bits_key: str, qubit: int, basis: str) -> int:
    digest = hashlib.sha256(
        f"{master}|{bits_key}|{qubit}|{basis}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def check_n_jobs(n_jobs: int) -> None:
    """Worker processes for ``project_features``: 1 (serial) or more."""
    if n_jobs < 1:
        raise ConfigError(f"n_jobs must be >= 1, got {n_jobs!r}")


def _check_bits(bits) -> np.ndarray:
    X = np.asarray(bits)
    if X.ndim != 2 or X.size == 0:
        raise DataError("expected a nonempty 2-D bit matrix")
    if not np.isin(X, (0, 1)).all():
        raise DataError("bit matrix entries must be 0/1")
    return X.astype(np.float64)


def _sample_features(row: np.ndarray, embedding: EmbeddingConfig,
                     backend: BackendConfig) -> np.ndarray:
    circuit = embedding.build(row)
    n = circuit.n_qubits
    out = np.empty(3 * n, dtype=np.float64)
    if backend.kind == "obp":
        stack = ObservableSum.stack(
            ObservableSum({PauliString.single(q, b): 1.0})
            for q in range(n) for b in BASES)
        out[:] = obp_expectations(
            backpropagate_observable(circuit, stack, backend.threshold))
        # truncation can push a triple off the Bloch ball; the true
        # value lies inside, so radial projection only shrinks error
        vecs = out.reshape(n, 3)
        radii = np.sqrt((vecs ** 2).sum(axis=1))
        off_ball = radii > 1.0
        if off_ball.any():
            vecs[off_ball] /= radii[off_ball, None]
        return out
    out[:] = sv.bloch_vectors(circuit).reshape(-1)
    if backend.kind == "shots":
        bits_key = "".join(str(int(b)) for b in row)
        for q in range(n):
            for k, b in enumerate(BASES):
                out[3 * q + k] = sv.binomial_estimate(
                    out[3 * q + k], backend.shots,
                    _shot_seed(backend.seed, bits_key, q, b))
        return out
    radii_sq = (out.reshape(n, 3) ** 2).sum(axis=1)
    if radii_sq.max() > 1.0 + BLOCH_TOL:
        raise BackendError(
            f"single-qubit Bloch bound violated: squared radius "
            f"{radii_sq.max()!r} on the exact backend")
    return out


def _cache_path(cache_dir: Path, bits_key: str, embedding: EmbeddingConfig,
                backend: BackendConfig) -> Path:
    text = f"{bits_key}|{embedding.descriptor()}|{backend.descriptor()}"
    if backend.kind != "obp":
        # rows read per cluster differ from the old whole-register
        # readout in the last bits; keep the two apart
        text += "|readout=cluster"
    key = hashlib.sha256(text.encode()).hexdigest()
    return cache_dir / key[:2] / f"{key}.npy"


def _worker(args):
    row, embedding, backend = args
    return _sample_features(row, embedding, backend)


def project_features(bits, embedding: EmbeddingConfig,
                     backend: BackendConfig, cache_dir=None,
                     n_jobs: int = 1) -> np.ndarray:
    """Feature matrix of shape (N, 3 * n_qubits) for a bit matrix.

    With ``cache_dir`` set, per-sample rows are memoized on disk keyed by
    the sample bits plus embedding and backend descriptors; cache writes
    are atomic so concurrent runs can share a directory.
    """
    check_n_jobs(n_jobs)
    X = _check_bits(bits)
    n = embedding.n_qubits(X.shape[1])
    width = 3 * n
    out = np.empty((X.shape[0], width), dtype=np.float64)
    todo = []
    paths = {}
    for i, row in enumerate(X):
        if cache_dir is not None:
            bits_key = "".join(str(int(b)) for b in row)
            path = _cache_path(Path(cache_dir), bits_key, embedding, backend)
            paths[i] = path
            if path.exists():
                try:
                    cached = np.load(path, allow_pickle=False)
                except (ValueError, EOFError):  # not an .npy, or truncated
                    cached = None
                if cached is None or cached.shape != (width,):
                    raise DataError(f"corrupt feature cache entry {path}")
                out[i] = cached
                continue
        todo.append(i)
    if todo and n_jobs > 1:
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            rows = pool.map(_worker,
                            [(X[i], embedding, backend) for i in todo],
                            chunksize=8)
            for i, row_out in zip(todo, rows):
                out[i] = row_out
    else:
        for i in todo:
            out[i] = _sample_features(X[i], embedding, backend)
    if cache_dir is not None:
        for i in todo:
            path = paths[i]
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    np.save(fh, out[i])
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        logger.info("features: %d computed, %d from cache",
                    len(todo), X.shape[0] - len(todo))
    return out


def write_feature_csv(path, features: np.ndarray, labels=None) -> None:
    """Write a feature matrix (optionally with a trailing label column)."""
    F = np.asarray(features, dtype=np.float64)
    if F.ndim != 2 or F.shape[1] == 0 or F.shape[1] % 3:
        raise DataError("feature matrix must be 2-D with nonzero width "
                        "3 * n_qubits")
    header = feature_names(F.shape[1] // 3)
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (F.shape[0],):
            raise DataError("labels length must match feature rows")
        header = header + ["label"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, row in enumerate(F):
            cells = [f"{v:.17g}" for v in row]
            if labels is not None:
                cells.append(str(int(labels[i])))
            writer.writerow(cells)


def load_feature_csv(path):
    """Read a feature CSV; returns (features, labels-or-None)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty feature file")
        has_label = header and header[-1] == "label"
        cols = header[:-1] if has_label else header
        if not cols or len(cols) % 3 or cols != feature_names(len(cols) // 3):
            raise DataError(f"{path}: malformed feature header")
        feats, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: wrong column count")
            try:
                feats.append([float(v) for v in row[:len(cols)]])
                if has_label:
                    labels.append(int(row[-1]))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    if not feats:
        raise DataError(f"{path}: no feature rows")
    F = np.array(feats, dtype=np.float64)
    if not np.isfinite(F).all():
        raise DataError(f"{path}: non-finite feature values")
    y = np.array(labels, dtype=np.int64) if has_label else None
    return F, y
