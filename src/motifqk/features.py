"""Projected-feature extraction: embed each sample, read out every 1-RDM.

For an n-qubit embedding the feature row is (X_0, Y_0, Z_0, X_1, ...): all
3n single-qubit Pauli expectations of the embedded state. Every backend
reads them through ``statevector.bloch_vectors``, one CX-connected cluster
of the simplified circuit at a time, with one memo per block of rows that
one process computes, kept for that ``project_features`` call only: a
cluster circuit that repeats across rows, as one-hot rows' do, is read
once per call, and each row comes out bit for bit as when read alone.
Exact and shots simulate each cluster (shots then adds binomial noise), up
to statevector.DEFAULT_QUBIT_CAP qubits per cluster. Noise-free obp, up to
64 qubits, propagates a cluster's 3k observables as one stack (see
pauliprop); that gives the bits of propagating all 3n through the whole
circuit, because:

- each observable in a stack propagates as if alone;
- a gate outside an observable's cluster never touches its terms;
- relabelling cluster qubits to 0..k-1 in order keeps every (id, z, x) sort.

Every backend reads the simplified circuit (``circuits.simplify``); the
builders still emit every gate. On a one-hot 60-bit row nearly every data
gate has angle 0, so obp propagates about 82 gates of E1 reps 8 instead of
2,376, and 333 of E2 steps 4 instead of 4,141. With a positive truncation
threshold this moves no bit of a row of 0/1 bits:

- On such rows simplify removes only exact identities: RZ(0), H·H, CX·CX
  and E2's RX(pi/2)·RX(-pi/2), the one merge, whose angle sums to 0.0.
- H and CX permute terms and flip signs exactly. RZ(0) splits nothing
  and, as every stored coefficient already meets the threshold, truncates
  nothing: its merge only re-sorts terms, and the next real merge sorts
  them into the same canonical (id, z, x) order anyway.
- Through the built RX pair a term returns with coefficient
  c·sin(pi/2)^2 = c, once truncation has dropped its cos(pi/2) ~ 6e-17 part.
- A merging group holds at most one original term and one branch, so its
  sum does not depend on the order that re-sorts left.

Two cases escape this argument: the terms left after an observable's last
real merge are summed in the order a skipped re-sort would have changed,
and an observable holding a term and its Y/Z partner on the RX pair's
qubit would add the cos(pi/2) part to the partner. So the identity is also
checked byte for byte on every production embedding
(``tests/test_features.py``). At threshold 0 nothing drops the cos(pi/2)
parts: untruncated E2 rows move by about 1e-32.

Truncated backpropagation estimates each expectation with bounded error,
and shot sampling estimates each basis on its own; either can leave a
per-qubit triple slightly outside the unit Bloch ball. Both backends
project such triples radially back onto the ball, which never moves an
estimate away from the true reduced state.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import BackendError, ConfigError, DataError, check_count, \
    check_real
from .data import read_labelled_csv, write_labelled_csv
from . import statevector as sv
from .circuits import Circuit
from .circuits import build_heisenberg_embedding, build_zz_feature_map
from .pauliprop import ObservableSum, backpropagate_observable, \
    obp_expectations

logger = logging.getLogger(__name__)

BASES = ("X", "Y", "Z")
PRODUCTION_REPS = (4, 6, 8, 12)
PRODUCTION_STEPS = (4, 6)
PRODUCTION_SCALES = (math.pi, math.pi / 2)
BLOCH_TOL = 1e-9


def parse_scale(text: str) -> float:
    """Rotation scale from its config spelling: pi, or pi2 for pi/2, the
    two ``PRODUCTION_SCALES``; any other text is a ``ConfigError``."""
    if text == "pi":
        return math.pi
    if text == "pi2":
        return math.pi / 2
    raise ConfigError(f"scale must be pi or pi2, got {text!r}")


@dataclass(frozen=True)
class EmbeddingConfig:
    """Which embedding to build and with what parameters.

    ``reps``, ``steps`` and ``seed`` are None when not given. E1 needs
    ``reps``, E2 ``steps`` and ``seed`` (its RY layer, an int >= 0);
    neither takes more. Both kinds couple the qubits of a linear chain.
    Only the production settings are accepted: E1 repetitions in
    {4, 6, 8, 12}, E2 Trotter steps in {4, 6}, scale pi or pi/2. A circuit
    at any other setting comes from ``build_zz_feature_map`` or
    ``build_heisenberg_embedding`` directly.

    ``descriptor()`` keys the feature cache and the report's config hash;
    keep its text, including the E1 suffix ``:ent=linear``.
    """

    kind: str
    reps: int | None = None
    steps: int | None = None
    scale: float = math.pi / 2
    seed: int | None = None

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
            check_count(self.reps, "e1 reps", 1)
            if self.reps not in PRODUCTION_REPS:
                raise ConfigError(f"e1 reps must be one of {PRODUCTION_REPS}")
        else:
            check_count(self.steps, "e2 steps", 1)
            if self.steps not in PRODUCTION_STEPS:
                raise ConfigError(
                    f"e2 steps must be one of {PRODUCTION_STEPS}")
            check_count(self.seed, "e2 seed", 0)
        if self.scale not in PRODUCTION_SCALES:
            raise ConfigError("scale must be pi or pi/2")
        # a numpy scale would spell np.float64(...) in the descriptor
        object.__setattr__(self, "scale", float(self.scale))

    def n_qubits(self, n_features: int) -> int:
        return n_features if self.kind == "e1" else n_features + 1

    def build(self, x) -> Circuit:
        if self.kind == "e1":
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
    included. ``threshold`` belongs to obp alone and is kept as a float.
    ``descriptor()`` keys the feature cache and the report's config hash;
    keep its text.
    """

    kind: str
    shots: int = 0
    seed: int | None = None
    threshold: float = 0.0

    def __post_init__(self):
        if self.kind not in ("exact", "shots", "obp"):
            raise ConfigError(f"unknown backend kind {self.kind!r}")
        if self.kind == "shots":
            check_count(self.shots, "shots", 1)
            if self.seed is None:
                raise ConfigError("shots backend needs a seed")
            check_count(self.seed, "shots seed", 0)
        if self.kind != "shots" and (self.shots or self.seed is not None):
            raise ConfigError(
                f"shots and seed apply to the shots backend, not {self.kind}")
        if self.kind != "obp" and self.threshold:
            raise ConfigError(
                f"threshold applies to the obp backend, not {self.kind}")
        check_real(self.threshold, "obp threshold", 0.0)
        # obp:1 and obp:1.0 must be one descriptor, so one cache key
        object.__setattr__(self, "threshold", float(self.threshold))

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


def _check_bits(bits) -> np.ndarray:
    X = np.asarray(bits)
    if X.ndim != 2 or X.size == 0:
        raise DataError("expected a nonempty 2-D bit matrix")
    if not ((X == 0) | (X == 1)).all():
        raise DataError("bit matrix entries must be 0/1")
    return X.astype(np.float64)


def _onto_bloch_ball(out: np.ndarray) -> None:
    """Project every qubit's (X, Y, Z) triple of a feature row radially,
    in place, onto the unit Bloch ball. This is the nearest point of the
    ball, so an estimate moves no farther from the true reduced state,
    which lies inside."""
    vecs = out.reshape(-1, 3)
    radii = np.sqrt((vecs ** 2).sum(axis=1))
    off_ball = radii > 1.0
    if off_ball.any():
        vecs[off_ball] /= radii[off_ball, None]


def _read_obp(threshold: float, circuit: Circuit) -> np.ndarray:
    # a cluster's 3k single-qubit observables, propagated as one stack
    return obp_expectations(backpropagate_observable(
        circuit, ObservableSum.single_qubit_stack(circuit.n_qubits),
        threshold)).reshape(-1, 3)


def _sample_features(row: np.ndarray, embedding: EmbeddingConfig,
                     backend: BackendConfig, memo: dict) -> np.ndarray:
    circuit = embedding.build(row)
    n = circuit.n_qubits
    if backend.kind == "obp" and n > 64:
        raise BackendError("obp backend packs masks into 64-bit words")
    read = partial(_read_obp, backend.threshold) \
        if backend.kind == "obp" else None
    out = sv.bloch_vectors(circuit, memo, read).reshape(-1)
    if backend.kind == "exact":
        radii_sq = (out.reshape(n, 3) ** 2).sum(axis=1)
        if radii_sq.max() > 1.0 + BLOCH_TOL:
            raise BackendError(
                f"single-qubit Bloch bound violated: squared radius "
                f"{radii_sq.max()!r} on the exact backend")
        return out
    if backend.kind == "shots":
        # each basis is sampled on its own, so a triple of estimates can
        # leave the ball even though each lies in [-1, 1]
        bits_key = "".join(str(int(b)) for b in row)
        for q in range(n):
            for k, b in enumerate(BASES):
                out[3 * q + k] = sv.binomial_estimate(
                    out[3 * q + k], backend.shots,
                    _shot_seed(backend.seed, bits_key, q, b))
    # truncation, too, can push a triple off the Bloch ball
    _onto_bloch_ball(out)
    return out


def _feature_block(rows: np.ndarray, embedding: EmbeddingConfig,
                   backend: BackendConfig) -> list[np.ndarray]:
    """Feature rows of a block of bit rows; the block's cluster readouts
    share one memo (module docstring)."""
    memo: dict = {}
    return [_sample_features(row, embedding, backend, memo) for row in rows]


# the last field of every cache key. Keys written by older code end in a
# descriptor or in one of the tags |readout=cluster, |bloch=projected and
# |circuit=simplified, never in this, so their rows are not read back. A
# change to any backend's row bits bumps this value.
_CACHE_FORMAT = "|rows=v2"


def _cache_path(cache_dir: Path, bits_key: str, embedding: EmbeddingConfig,
                backend: BackendConfig) -> Path:
    text = (f"{bits_key}|{embedding.descriptor()}|{backend.descriptor()}"
            f"{_CACHE_FORMAT}")
    key = hashlib.sha256(text.encode()).hexdigest()
    return cache_dir / key[:2] / f"{key}.npy"


def project_features(bits, embedding: EmbeddingConfig,
                     backend: BackendConfig, cache_dir=None,
                     n_jobs: int = 1) -> np.ndarray:
    """Feature matrix of shape (N, 3 * n_qubits) for a bit matrix.

    With ``cache_dir`` set, per-sample rows are memoized on disk keyed by
    the sample bits plus embedding and backend descriptors; cache writes
    are atomic so concurrent runs can share a directory, and an entry that
    does not load as a row of the right width is a ``DataError``. No
    command or config sets ``cache_dir``; it stays because the benchmark's
    ``embed`` workload times a cold pass into a cache and a warm read back.
    """
    check_count(n_jobs, "n_jobs", 1)
    if cache_dir is not None and not str(cache_dir):
        # an empty path names the working directory
        raise ConfigError("cache dir must not be empty (leave it out for "
                          "no cache)")
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
    if todo:
        # one block per worker, each with its own memo; serial is one block
        size = -(-len(todo) // n_jobs)
        blocks = [todo[s:s + size] for s in range(0, len(todo), size)]
        with (ProcessPoolExecutor(max_workers=n_jobs) if n_jobs > 1
              else nullcontext()) as pool:
            run = map if pool is None else pool.map
            done = run(_feature_block, [X[b] for b in blocks],
                       repeat(embedding), repeat(backend))
            for block, rows in zip(blocks, done):
                out[block] = rows
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


def write_feature_csv(path, features: np.ndarray, labels) -> None:
    """Write a feature matrix, columns q0_X ... q{n-1}_Z, then a label
    column."""
    F = np.asarray(features, dtype=np.float64)
    if F.ndim != 2 or F.shape[1] == 0 or F.shape[1] % 3:
        raise DataError("feature matrix must be 2-D with nonzero width "
                        "3 * n_qubits")
    labels = np.asarray(labels)
    if labels.shape != (F.shape[0],):
        raise DataError("labels length must match feature rows")
    write_labelled_csv(path, feature_names(F.shape[1] // 3),
                       "{:.17g}".format, F, labels)


def load_feature_csv(path):
    """Read a feature CSV written by ``write_feature_csv``; returns
    (features, labels). A file without the trailing label column is a
    ``DataError``."""
    # n columns carry the names of n // 3 qubits only when 3 divides n
    rows, labels = read_labelled_csv(
        path, lambda n: feature_names(n // 3), float)
    F = np.array(rows, dtype=np.float64)
    if not np.isfinite(F).all():
        raise DataError(f"{path}: non-finite feature values")
    return F, labels
