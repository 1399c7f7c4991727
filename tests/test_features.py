"""Projected-feature extraction tests: widths, caching, backends."""

import hashlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from motifqk import features
from motifqk.circuits import build_zz_feature_map, simplify
from motifqk.data import Construct, MOTIF_CATALOG, correlation_order, \
    encode_dataset, load_constructs
from motifqk.errors import BackendError, ConfigError, DataError
from motifqk.features import (
    BackendConfig,
    EmbeddingConfig,
    _cache_path,
    feature_names,
    load_feature_csv,
    project_features,
    write_feature_csv,
)
from motifqk.pauliprop import ObservableSum, backpropagate_observable, \
    obp_expectations
from motifqk.statevector import bloch_vectors

from _observables import observables

OBP0 = BackendConfig(kind="obp", threshold=0.0)
EXACT = BackendConfig(kind="exact")
PRODUCTION_EMBEDDINGS = (
    [EmbeddingConfig("e1", reps=r, scale=s) for r in features.PRODUCTION_REPS
     for s in features.PRODUCTION_SCALES]
    + [EmbeddingConfig("e2", steps=k, scale=s, seed=0)
       for k in features.PRODUCTION_STEPS for s in features.PRODUCTION_SCALES])
# a production setting for the tests of project_features' mechanics: its
# random RY layer leaves no feature trivial, at any width
SMALL = EmbeddingConfig("e2", steps=4, scale=math.pi / 2, seed=0)
# the row of test_obp_features_at_60_bits_are_pinned: 25 of 60 bits set
DENSE_ROW = "010000111100100010000111100110000111110000101011100011000000"


def _bits(rng, n, d):
    return rng.integers(0, 2, (n, d)).astype(np.uint8)


def test_embedding_config_validation():
    EmbeddingConfig(kind="e1", reps=8, scale=math.pi / 2)
    EmbeddingConfig(kind="e2", steps=6, scale=math.pi, seed=0)
    with pytest.raises(ConfigError):
        EmbeddingConfig(kind="e3", reps=8, scale=math.pi)
    with pytest.raises(ConfigError):
        EmbeddingConfig(kind="e1", reps=5, scale=math.pi)
    with pytest.raises(ConfigError):
        EmbeddingConfig(kind="e1", reps=8, scale=1.0)
    with pytest.raises(ConfigError):
        EmbeddingConfig(kind="e2", steps=5, scale=math.pi, seed=0)
    # each kind needs the fields it reads and rejects the others; e2 reads
    # a seed for its random RY layer, so it has no default one
    for fields in ({"kind": "e2", "steps": 4},
                   {"kind": "e1", "reps": 8, "steps": 4},
                   {"kind": "e1", "reps": 8, "seed": 0},
                   {"kind": "e2", "steps": 4, "seed": 0, "reps": 8},
                   {"kind": "e1"}):
        with pytest.raises(ConfigError):
            EmbeddingConfig(**fields)
    # only the production settings: no identity embedding (reps 0), no
    # other angle, and no switch that lets one in
    for fields in ({"kind": "e1", "reps": 0},
                   {"kind": "e1", "reps": 3, "scale": 0.7},
                   {"kind": "e2", "steps": 1, "scale": math.pi, "seed": 0},
                   {"kind": "e2", "steps": 4, "scale": 1.4, "seed": 0}):
        with pytest.raises(ConfigError):
            EmbeddingConfig(**fields)
    with pytest.raises(TypeError):
        EmbeddingConfig(kind="e1", reps=8, test_mode=True)
    # a count in the production set is refused unless it is a plain int
    for fields in ({"kind": "e1", "reps": 8.0},
                   {"kind": "e1", "reps": np.int64(8)},
                   {"kind": "e2", "steps": 4.0, "seed": 0}):
        with pytest.raises(ConfigError, match="must be an int >= 1, got"):
            EmbeddingConfig(**fields)
    # the e2 seed seeds numpy, which takes ints >= 0 only; a bool or a
    # numpy integer is refused too, as the descriptor would spell it
    for seed in (-1, 1.5, "0", True, np.int64(0)):
        with pytest.raises(ConfigError, match="e2 seed must be an int >= 0"):
            EmbeddingConfig(kind="e2", steps=4, scale=math.pi, seed=seed)


def test_embedding_qubit_counts():
    e1 = EmbeddingConfig(kind="e1", reps=4, scale=math.pi)
    e2 = EmbeddingConfig(kind="e2", steps=4, scale=math.pi, seed=1)
    assert e1.n_qubits(60) == 60
    assert e2.n_qubits(60) == 61


def test_backend_config_parse():
    assert BackendConfig.parse("exact").kind == "exact"
    shots = BackendConfig.parse("shots:1000", seed=7)
    assert (shots.kind, shots.shots, shots.seed) == ("shots", 1000, 7)
    obp = BackendConfig.parse("obp:0.05")
    assert (obp.kind, obp.threshold) == ("obp", 0.05)
    assert BackendConfig.parse("obp:0").threshold == 0.0
    for bad in ("obp", "shots", "shots:x", "obp:-1", "magic"):
        with pytest.raises(ConfigError):
            BackendConfig.parse(bad)
    with pytest.raises(ConfigError, match="^shots must be an int >= 1, got 0$"):
        BackendConfig.parse("shots:0", seed=0)


def test_backend_validation():
    with pytest.raises(ConfigError, match="^shots must be an int >= 1, got 0$"):
        BackendConfig(kind="shots", shots=0, seed=0)
    # the shots count and seed are plain ints: no bool, float or numpy int,
    # which the descriptor would spell as shots:10:seed=True and the like
    for shots, seed in ((True, 0), (2.5, 0), (np.int64(10), 0),
                        (10, -1), (10, True), (10, 2.5), (10, np.int64(0))):
        with pytest.raises(ConfigError, match="must be an int >= "):
            BackendConfig("shots", shots=shots, seed=seed)
    with pytest.raises(ConfigError):
        BackendConfig(kind="obp", threshold=-0.5)
    with pytest.raises(ConfigError):
        BackendConfig(kind="dense")
    # shots and seed are read by the shots backend alone; elsewhere they
    # would be ignored while the features look noisy by config
    for kind in ("exact", "obp"):
        with pytest.raises(ConfigError):
            BackendConfig(kind=kind, shots=100, seed=3)
        with pytest.raises(ConfigError):
            BackendConfig(kind=kind, seed=3)
    # shot sampling is random, so shots has no default seed; any seed,
    # 0 included, is an error where nothing reads it
    with pytest.raises(ConfigError, match="needs a seed"):
        BackendConfig("shots", shots=100)
    for text in ("exact", "obp:0.05"):
        with pytest.raises(ConfigError):
            BackendConfig.parse(text, seed=0)


def test_real_values_spell_one_descriptor():
    # obp:1 and obp:1.0 are one backend, so one cache key and config hash,
    # and a numpy value spells no np.float64(...) into either
    for threshold in (1, 1.0, np.int64(1), np.float32(1), np.float64(1)):
        assert BackendConfig("obp", threshold=threshold).descriptor() \
            == BackendConfig.parse("obp:1").descriptor() == "obp:1.0"
    assert BackendConfig("obp", threshold=np.float64(0.05)).descriptor() \
        == BackendConfig.parse("obp:0.05").descriptor()
    # a float32 keeps its value, spelled as the float it is
    assert BackendConfig("obp", threshold=np.float32(0.05)).descriptor() \
        == BackendConfig.parse("obp:0.05000000074505806").descriptor()
    for scale in (math.pi / 2, np.float64(math.pi / 2)):
        assert EmbeddingConfig("e1", reps=6, scale=scale).descriptor() \
            == EmbeddingConfig("e1", reps=6, scale=features.parse_scale(
                "pi2")).descriptor()


def test_threshold_applies_to_obp_alone():
    # nothing reads a threshold on exact or shots: refuse it, as a seed is
    # refused where nothing reads it
    for kind, read in (("exact", {}), ("shots", {"shots": 100, "seed": 0})):
        with pytest.raises(ConfigError, match="^threshold applies to the "
                                              f"obp backend, not {kind}$"):
            BackendConfig(kind, threshold=5.0, **read)
    with pytest.raises(ConfigError, match="needs a seed"):
        BackendConfig("shots", shots=100, threshold=5.0)


def test_descriptors_and_cache_paths_are_pinned():
    # feature caches and report config hashes written by earlier versions
    # stay valid only while these strings and paths do not move
    e1 = EmbeddingConfig("e1", reps=8, scale=math.pi / 2)
    e2 = EmbeddingConfig("e2", steps=4, scale=math.pi / 2, seed=0)
    backends = [BackendConfig.parse("obp:0.05"), BackendConfig.parse("exact"),
                BackendConfig.parse("shots:100", seed=5)]
    assert e1.descriptor() == "e1:reps=8:scale=1.5707963267948966:ent=linear"
    assert e2.descriptor() == "e2:steps=4:scale=1.5707963267948966:seed=0"
    assert [b.descriptor() for b in backends] \
        == ["obp:0.05", "exact", "shots:100:seed=5"]
    paths = [_cache_path(Path("c"), "01" * 30, e, b).as_posix()
             for e in (e1, e2) for b in backends]
    # every key ends in features._CACHE_FORMAT, so no entry written before
    # the last change to a backend's row bits is read back
    assert paths == [
        "c/01/014aa040d338d4b6565a19a10397dd22053ea503468195239387db53391a5993.npy",
        "c/be/be9430a1bca11aad8c2e2d9660a12ac50985f2138dc73e723b97a76d16a443e3.npy",
        "c/35/35817547d6baf1cfcf7313a552778f3e1318ef1657542d872c5502a4faac3715.npy",
        "c/d7/d7d836409d416062275169025a6f5e8764d704cb17eb5532c8b3f71c8f22765e.npy",
        "c/e5/e58bc1a7a1c97dec61329e49f7031c7d53a8464c80d7b41cfd8744be2487500a.npy",
        "c/48/484f44d4b37daf7cc8cfb7cb9606dba2fb2f9d5a3e76282a2e63f68bd9707bbe.npy",
    ]


@pytest.mark.parametrize("text", ["exact", "shots:100", "obp:0", "obp:0.05"])
def test_cache_keys_carry_the_format_constant(text):
    # keys written by older code, untagged or tagged per backend, never
    # equal a key of today's rows, so their entries are not read back
    backend = BackendConfig.parse(
        text, seed=5 if text.startswith("shots:") else None)
    e2 = EmbeddingConfig("e2", steps=4, scale=math.pi / 2, seed=0)
    bits_key = "01" * 30
    base = f"{bits_key}|{e2.descriptor()}|{backend.descriptor()}"
    stem = _cache_path(Path("c"), bits_key, e2, backend).stem
    assert stem == hashlib.sha256(
        (base + features._CACHE_FORMAT).encode()).hexdigest()
    for tag in ("", "|readout=cluster", "|readout=cluster|bloch=projected",
                "|circuit=simplified"):
        assert not (base + tag).endswith(features._CACHE_FORMAT)
        assert stem != hashlib.sha256((base + tag).encode()).hexdigest()


def test_obp_features_at_60_bits_are_pinned():
    # sha256 of the float64 bytes of one 60-bit row on obp:0.05; any change
    # to the propagation order, merging or truncation moves them
    row = np.array([[int(b) for b in
                     "010000111100100010000111100110000111110000101011"
                     "100011000000"]])
    e1 = EmbeddingConfig("e1", reps=8, scale=math.pi / 2)
    e2 = EmbeddingConfig("e2", steps=4, scale=math.pi / 2, seed=0)
    obp = BackendConfig.parse("obp:0.05")
    digests = [hashlib.sha256(project_features(row, e, obp).tobytes())
               .hexdigest() for e in (e1, e2)]
    assert digests == [
        "bbadc7a6db1e2b95ad3e55b88bb91bd08e1c10854acea04ebc9244f1a8af5050",
        "69344f2e741ad8dd20ade2eaa6072b0624bea5123f8f63f652dd63794d36d38f",
    ]


def test_obp_features_of_the_demo_constructs_are_pinned():
    # sha256 of the float64 feature bytes of the 12 demo constructs, E1 in
    # correlation order and E2 in natural order, each at the production
    # threshold and untruncated; they pin what obp rows are, so a change
    # to the propagation engine cannot move them unseen
    demo = Path(__file__).resolve().parents[1] / "examples" / "demo"
    bits = encode_dataset(load_constructs(demo / "constructs.csv")).bits
    e1 = EmbeddingConfig("e1", reps=8, scale=math.pi / 2)
    e2 = EmbeddingConfig("e2", steps=4, scale=math.pi / 2, seed=0)
    digests = [hashlib.sha256(project_features(
        X, emb, BackendConfig.parse(backend)).tobytes()).hexdigest()
        for emb, X in ((e1, bits[:, correlation_order(bits)]), (e2, bits))
        for backend in ("obp:0.05", "obp:0.0")]
    assert digests == [
        "a4ddc6918433d1a2fcb41096b4ce2149dd2d67c5303d0f695f4050802e55108c",
        "50ec6a4dfb6bb99ffb6a32690cea1f5003de2d7b0769f62a8e6d9416f13eccd7",
        "46749353a52baae96a95a401396465e118845e72a761ba328cb26807a362ed6d",
        "fae03dca9c8b863c6943a7784d4c1c7bd9e301c5b93e2b64337ef969e4f621c7",
    ]


def _one_hot_rows(n, seed):
    rng = np.random.default_rng(seed)
    motifs = sorted(MOTIF_CATALOG)
    return encode_dataset(
        [Construct(tuple(str(m) for m in rng.choice(motifs, rng.integers(1, 4))),
                   0.5) for _ in range(n)]).bits


def _pinned_rows():
    # 12 one-hot rows and the dense row, which couples up to 6 qubits
    return np.vstack([_one_hot_rows(12, seed=7),
                      [[int(b) for b in DENSE_ROW]]])


def test_exact_features_at_60_bits_are_pinned():
    # sha256 of the float64 feature bytes; any change to simplification,
    # the cluster split, the simulator or the readout memo moves them
    rows = _pinned_rows()
    # E1 without the dense row: in correlation order it joins 20 qubits
    one_hot = rows[:-1]
    e1 = EmbeddingConfig("e1", reps=6, scale=math.pi / 2)
    e2 = EmbeddingConfig("e2", steps=4, scale=math.pi / 2, seed=0)
    shots = BackendConfig.parse("shots:100", seed=0)
    cases = [(rows, e2, EXACT),
             (one_hot[:, correlation_order(one_hot)], e1, EXACT),
             (rows[-1:], e2, shots)]
    digests = [hashlib.sha256(project_features(r, e, b).tobytes())
               .hexdigest() for r, e, b in cases]
    assert digests == [
        "06bf3f94813ac6970f6df6a5eb7e065aa03620117e2cad61730bdb652fccdb9f",
        "48677fecb302f1a83b0f13c8dc3bfca578cd4b443244e6e42ea77bcc3e82fdfb",
        "6348e2dd84bcd044022ca480e2ffecc8922dd2e956224b2efdd4e1711f073ed0",
    ]


@pytest.mark.parametrize("backend", [EXACT, BackendConfig.parse(
    "shots:100", seed=0)], ids=lambda b: b.kind)
def test_exact_readout_simulates_each_cluster_circuit_once_per_call(
        backend, monkeypatch):
    rows = _pinned_rows()
    emb = EmbeddingConfig("e2", steps=4, scale=math.pi / 2, seed=0)
    want = project_features(rows, emb, backend, n_jobs=1)
    seen = []
    simulate = features.sv.simulate

    def counted(circuit):
        seen.append(circuit)
        return simulate(circuit)

    monkeypatch.setattr(features.sv, "simulate", counted)
    # every cluster circuit of the rows, each row read on its own
    for row in rows:
        features.sv.bloch_vectors(emb.build(row.astype(float)))
    distinct = set(seen)
    assert len(distinct) < len(seen) / 5
    seen.clear()
    got = project_features(rows, emb, backend, n_jobs=1)
    assert got.tobytes() == want.tobytes()
    assert len(seen) == len(set(seen)) and set(seen) == distinct
    # a second call starts from nothing
    first = list(seen)
    seen.clear()
    project_features(rows, emb, backend, n_jobs=1)
    assert seen == first
    monkeypatch.undo()
    assert project_features(rows, emb, backend, n_jobs=2).tobytes() \
        == want.tobytes()


@pytest.mark.parametrize("emb", PRODUCTION_EMBEDDINGS,
                         ids=lambda e: e.descriptor())
def test_obp_of_the_simplified_circuit_matches_the_built_one(emb):
    # project_features propagates simplify(circuit); every bit of a row
    # must come out as from the circuit as built (features docstring)
    bits = _one_hot_rows(40, seed=7)
    ordered = bits[:, correlation_order(bits)]
    # in correlation order, the first row with two pairs of adjacent set
    # bits, so that E1's entanglers act too
    adjacent = (ordered[:, 1:] & ordered[:, :-1]).sum(axis=1)
    rows = [bits[0], ordered[np.flatnonzero(adjacent == 2)[0]]]
    # untruncated on the correlation-order row only, and the dense row at
    # the pinned test's scale only: this keeps the test near 10 s
    cases = [(rows[0], 0.05), (rows[1], 0.05), (rows[1], 0.0)]
    if emb.scale == math.pi / 2:
        cases.append((np.array([int(b) for b in DENSE_ROW]), 0.05))
    for row, threshold in cases:
        circuit = emb.build(row.astype(float))
        stack = ObservableSum.single_qubit_stack(circuit.n_qubits)
        built, simple = (obp_expectations(backpropagate_observable(
            c, stack, threshold)) for c in (circuit, simplify(circuit)))
        if threshold or emb.kind == "e1":
            assert built.tobytes() == simple.tobytes()
        else:
            # untruncated, each RX(pi/2)·RX(-pi/2) pair that simplify
            # removes leaves cos(pi/2)^2-sized terms in the built circuit
            assert np.abs(built - simple).max() <= 1e-30


@pytest.mark.parametrize("emb", PRODUCTION_EMBEDDINGS,
                         ids=lambda e: e.descriptor())
def test_obp_cluster_readout_matches_the_whole_circuit(emb):
    # project_features propagates each cluster's observables on their own;
    # every byte must come out as when all 3n observables propagate through
    # the whole simplified circuit (features docstring)
    rows = _pinned_rows()
    for ordered in (rows, rows[:, correlation_order(rows[:-1])]):
        # untruncated, the dense row's widest cluster holds too many terms
        for X, threshold in ((ordered, 0.05), (ordered[:-1], 0.0)):
            want = np.empty((len(X), 3 * emb.n_qubits(X.shape[1])))
            for out, row in zip(want, X):
                circuit = simplify(emb.build(row.astype(float)))
                out[:] = obp_expectations(backpropagate_observable(
                    circuit, ObservableSum.single_qubit_stack(
                        circuit.n_qubits), threshold))
                vecs = out.reshape(-1, 3)
                radii = np.sqrt((vecs ** 2).sum(axis=1))
                vecs[radii > 1.0] /= radii[radii > 1.0, None]
            got = project_features(X, emb, BackendConfig(
                "obp", threshold=threshold))
            assert got.tobytes() == want.tobytes()


def test_obp_readout_propagates_each_cluster_circuit_once_per_call(
        monkeypatch):
    rows = _pinned_rows()
    obp = BackendConfig.parse("obp:0.05")
    want = project_features(rows, SMALL, obp)
    seen = []
    backprop = features.backpropagate_observable

    def counted(circuit, obs, threshold):
        seen.append(circuit)
        return backprop(circuit, obs, threshold)

    monkeypatch.setattr(features, "backpropagate_observable", counted)
    # every cluster circuit of the rows, each row read on its own
    for row in rows:
        project_features(row[None], SMALL, obp)
    distinct = set(seen)
    assert len(distinct) < len(seen) / 5
    # no circuit spans the register: each is one cluster's
    assert max(c.n_qubits for c in distinct) < rows.shape[1] / 5
    seen.clear()
    got = project_features(rows, SMALL, obp)
    assert got.tobytes() == want.tobytes()
    assert len(seen) == len(set(seen)) and set(seen) == distinct
    # a second call starts from nothing
    first = list(seen)
    seen.clear()
    project_features(rows, SMALL, obp)
    assert seen == first


def test_single_qubit_stack_matches_stacked_sums():
    for n in (1, 5, 61, 64):
        old = observables(*({"I" * q + b: 1.0}
                            for q in range(n) for b in "XYZ"))
        new = ObservableSum.single_qubit_stack(n)
        assert new.n_obs == old.n_obs == 3 * n
        for field in ("xs", "zs", "cs", "ids"):
            a, b = getattr(new, field), getattr(old, field)
            assert a.dtype == b.dtype and np.array_equal(a, b)
    with pytest.raises(BackendError):
        ObservableSum.single_qubit_stack(65)


def test_obp_beyond_64_qubits_is_a_backend_error():
    # a typed error (exit 4), not an OverflowError from the readout masks
    emb = EmbeddingConfig(kind="e1", reps=4, scale=math.pi / 2)
    with pytest.raises(BackendError, match="64-bit"):
        project_features(np.zeros((1, 65), dtype=np.uint8), emb, OBP0)


def test_e1_natural_order_product_state_is_analytic():
    # with no two adjacent bits set every E1 entangler is CX·RZ(0)·CX, so
    # each qubit runs (RZ(pi*x)·H)^reps alone: the identity at reps 8 and
    # a bit flip of the set qubits at reps 6 (ROADMAP item 2)
    rng = np.random.default_rng(11)
    bits = rng.random((6, 60)) < 0.3
    bits[:, 1:] &= ~bits[:, :-1]
    bits = bits.astype(np.uint8)
    assert bits.sum() > 0 and not (bits[:, 1:] & bits[:, :-1]).any()
    reps8 = project_features(
        bits, EmbeddingConfig("e1", reps=8, scale=math.pi / 2), EXACT)
    assert np.abs(reps8 - np.tile([0.0, 0.0, 1.0], 60)).max() <= 1e-12
    reps6 = project_features(
        bits, EmbeddingConfig("e1", reps=6, scale=math.pi / 2), EXACT)
    assert np.abs(reps6[:, 2::3] - (1.0 - 2.0 * bits)).max() <= 1e-12


def test_e2_natural_order_features_are_affine_in_the_bits():
    # in natural order each feature is A·bits + b (ROADMAP item 2): least
    # squares over 135 distinct constructs, far more rows than the rank of
    # [1, bits], so the fit is overdetermined and a small residual is real
    motifs = sorted(MOTIF_CATALOG, key=lambda m: int(m[1:]))
    motif_sets = ([(m,) for m in motifs]
                  + list(itertools.product(motifs, repeat=2))[::2]
                  + list(itertools.product(motifs, repeat=3))[::61])
    bits = encode_dataset([Construct(ms, 0.5) for ms in motif_sets]).bits
    assert bits.shape == (135, 60) and len(np.unique(bits, axis=0)) == 135
    F = project_features(
        bits, EmbeddingConfig("e2", steps=4, scale=math.pi / 2, seed=0),
        EXACT)
    A = np.hstack([np.ones((len(bits), 1)), bits])
    assert np.linalg.matrix_rank(A) < len(bits) // 2
    assert (F.std(axis=0) > 1e-9).any()
    coef = np.linalg.lstsq(A, F, rcond=None)[0]
    assert np.abs(A @ coef - F).max() <= 1e-12


def test_exact_features_at_60_bits_match_untruncated_obp(small_dataset):
    # golden: obp at threshold 0 is exact up to rounding; E1 in correlation
    # order entangles neighbouring set bits into clusters of up to 4 qubits
    bits = small_dataset.bits[:5]
    e1_bits = bits[:, correlation_order(small_dataset.bits)]
    e1 = EmbeddingConfig("e1", reps=8, scale=math.pi / 2)
    e2 = EmbeddingConfig("e2", steps=4, scale=math.pi / 2, seed=0)
    for emb, rows in ((e1, e1_bits), (e2, bits)):
        exact = project_features(rows, emb, EXACT)
        assert exact.shape == (5, 3 * emb.n_qubits(60))
        assert np.abs(exact - project_features(rows, emb, OBP0)).max() \
            <= 1e-12


def test_feature_names_layout():
    names = feature_names(2)
    assert names == ["q0_X", "q0_Y", "q0_Z", "q1_X", "q1_Y", "q1_Z"]


def test_feature_width_e1(rng):
    bits = _bits(rng, 3, 60)
    emb = EmbeddingConfig(kind="e1", reps=4, scale=math.pi / 2)
    feats = project_features(bits, emb, BackendConfig(kind="obp", threshold=0.1))
    assert feats.shape == (3, 180)


def test_feature_width_e2():
    bits = _one_hot_rows(2, seed=5)
    emb = EmbeddingConfig(kind="e2", steps=4, scale=math.pi, seed=5)
    feats = project_features(bits, emb, BackendConfig(kind="obp", threshold=0.05))
    assert feats.shape == (2, 183)


def test_exact_and_obp_agree_small(rng):
    # off the production settings, so the circuits are built and read directly
    for row in _bits(rng, 4, 6).astype(float):
        circuit = build_zz_feature_map(row, reps=2, scale=1.1)
        a = bloch_vectors(circuit).reshape(-1)
        b = obp_expectations(backpropagate_observable(
            circuit, ObservableSum.single_qubit_stack(6), 0.0))
        assert np.allclose(a, b, atol=1e-11)


def test_duplicate_rows_identical_features(rng):
    row = rng.integers(0, 2, 8).astype(np.uint8)
    bits = np.stack([row, row, row])
    feats = project_features(bits, SMALL, EXACT)
    assert np.array_equal(feats[0], feats[1])
    assert np.array_equal(feats[0], feats[2])


def test_bloch_norm_bound(rng):
    bits = _bits(rng, 5, 7)
    emb = EmbeddingConfig(kind="e2", steps=4, scale=math.pi, seed=3)
    feats = project_features(bits, emb, EXACT)
    radii = (feats.reshape(5, -1, 3) ** 2).sum(axis=2)
    assert (radii <= 1.0 + 1e-9).all()


def test_exact_readout_off_bloch_ball_is_backend_error(monkeypatch):
    # a typed error, not an assert, so `python -O` still catches it
    import motifqk.statevector as sv_mod

    monkeypatch.setattr(sv_mod, "pauli_expectation", lambda *args: 1.0)
    with pytest.raises(BackendError, match="Bloch"):
        project_features(np.array([[0, 1]]), SMALL, EXACT)


def test_truncated_triples_projected_onto_bloch_ball():
    # this dense row at threshold 0.1 overshoots the ball before the fix
    bits = np.random.default_rng(3).integers(0, 2, (1, 60)).astype(np.uint8)
    emb = EmbeddingConfig(kind="e2", steps=4, scale=math.pi / 2, seed=7)
    circuit = emb.build(bits[0].astype(float))
    raw = np.empty((circuit.n_qubits, 3))
    for q in range(circuit.n_qubits):
        for k, b in enumerate("XYZ"):
            obs = observables({"I" * q + b: 1.0})
            raw[q, k] = obp_expectations(
                backpropagate_observable(circuit, obs, 0.1))[0]
    raw_radii = np.sqrt((raw ** 2).sum(axis=1))
    assert raw_radii.max() > 1.0  # the clamp has something to do

    feats = project_features(bits, emb, BackendConfig(kind="obp",
                                                      threshold=0.1))
    vecs = feats.reshape(circuit.n_qubits, 3)
    radii = np.sqrt((vecs ** 2).sum(axis=1))
    assert (radii <= 1.0 + 1e-12).all()
    for q in range(circuit.n_qubits):
        if raw_radii[q] > 1.0:
            assert np.allclose(vecs[q] * raw_radii[q], raw[q], atol=1e-12)
        else:
            assert np.array_equal(vecs[q], raw[q])


def test_exact_backend_qubit_cap():
    # the cap applies to the widest CX-connected cluster: an all-ones row
    # couples every chain pair into one 60-qubit cluster
    emb = EmbeddingConfig(kind="e1", reps=4, scale=math.pi)
    with pytest.raises(BackendError, match="cluster"):
        project_features(np.ones((1, 60), dtype=np.uint8), emb, EXACT)


def test_exact_backend_serves_one_hot_rows_at_60_bits():
    bits = np.zeros((1, 60), dtype=np.uint8)
    bits[0, 17] = 1
    emb = EmbeddingConfig(kind="e1", reps=4, scale=math.pi)
    feats = project_features(bits, emb, EXACT)
    assert feats.shape == (1, 180)
    assert np.allclose(feats, project_features(bits, emb, OBP0), atol=1e-12)


def test_empty_cache_dir_is_a_config_error(tmp_path, rng, monkeypatch):
    # an empty path names the working directory; refuse it rather than
    # fill it with cache entries
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match="cache dir must not be empty"):
        project_features(_bits(rng, 2, 4), SMALL, EXACT, cache_dir="")
    assert list(tmp_path.iterdir()) == []


def test_cache_round_trip(tmp_path, rng):
    bits = _bits(rng, 3, 5)
    first = project_features(bits, SMALL, EXACT, cache_dir=tmp_path)
    files = list(tmp_path.rglob("*.npy"))
    assert len(files) == 3
    second = project_features(bits, SMALL, EXACT, cache_dir=tmp_path)
    assert np.array_equal(first, second)


def test_cache_is_keyed_by_config(tmp_path, rng):
    bits = _bits(rng, 2, 5)
    steps6 = EmbeddingConfig(kind="e2", steps=6, scale=math.pi / 2, seed=0)
    project_features(bits, SMALL, EXACT, cache_dir=tmp_path)
    n_first = len(list(tmp_path.rglob("*.npy")))
    project_features(bits, steps6, EXACT, cache_dir=tmp_path)
    assert len(list(tmp_path.rglob("*.npy"))) == 2 * n_first


@pytest.mark.parametrize("damage", ["not an npy file", "wrong length"])
def test_corrupt_cache_entry_is_a_data_error(tmp_path, rng, damage):
    bits = _bits(rng, 1, 4)
    project_features(bits, SMALL, EXACT, cache_dir=tmp_path)
    (entry,) = tmp_path.rglob("*.npy")
    if damage == "wrong length":
        np.save(entry, np.zeros(5))
    else:
        entry.write_bytes(b"garbage")
    with pytest.raises(DataError, match="corrupt feature cache entry"):
        project_features(bits, SMALL, EXACT, cache_dir=tmp_path)


def test_cache_actually_short_circuits(tmp_path, rng, monkeypatch):
    bits = _bits(rng, 2, 4)
    want = project_features(bits, SMALL, EXACT, cache_dir=tmp_path)

    import motifqk.features as feats_mod

    def boom(*args, **kwargs):
        raise AssertionError("cache miss")

    monkeypatch.setattr(feats_mod, "_sample_features", boom)
    got = project_features(bits, SMALL, EXACT, cache_dir=tmp_path)
    assert np.array_equal(want, got)


def test_shot_backend_determinism(rng):
    bits = _bits(rng, 2, 4)
    a = project_features(bits, SMALL, BackendConfig(kind="shots", shots=200, seed=5))
    b = project_features(bits, SMALL, BackendConfig(kind="shots", shots=200, seed=5))
    c = project_features(bits, SMALL, BackendConfig(kind="shots", shots=200, seed=6))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert (np.abs(a) <= 1.0).all()


def test_shot_estimates_near_exact(rng):
    bits = _bits(rng, 2, 4)
    exact = project_features(bits, SMALL, EXACT)
    shots = project_features(
        bits, SMALL, BackendConfig(kind="shots", shots=200_000, seed=2))
    assert np.abs(exact - shots).max() < 0.02


def test_feature_csv_round_trip(tmp_path, rng):
    feats = rng.uniform(-1, 1, (4, 6))
    y = np.array([1, -1, 1, -1])
    path = tmp_path / "features.csv"
    write_feature_csv(path, feats, labels=y)
    loaded, labels = load_feature_csv(path)
    assert np.allclose(loaded, feats, atol=0)
    assert np.array_equal(labels, y)


def test_feature_csv_without_labels(tmp_path):
    # every feature file carries labels: one without them is refused
    path = tmp_path / "features.csv"
    path.write_text("q0_X,q0_Y,q0_Z\n0.5,0,1\n")
    with pytest.raises(DataError, match=f"{path} has no label column"):
        load_feature_csv(path)


def test_feature_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DataError):
        load_feature_csv(path)
    # a label column alone carries no features to train on
    path.write_text("label\n1\n-1\n")
    with pytest.raises(DataError):
        load_feature_csv(path)
    with pytest.raises(DataError):
        write_feature_csv(path, np.zeros((2, 0)), labels=[1, -1])


def test_project_features_validates_bits(rng):
    with pytest.raises(DataError):
        project_features(np.array([[0, 2]]), SMALL, EXACT)
    with pytest.raises(DataError):
        project_features(np.zeros((0, 4)), SMALL, EXACT)


def test_project_features_rejects_nonpositive_n_jobs(rng, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(features, "ProcessPoolExecutor", no_pool)
    for n_jobs in (0, -4, 2.5, True, np.int64(2)):
        with pytest.raises(ConfigError, match="n_jobs must be an int >= 1"):
            project_features(_bits(rng, 2, 3), SMALL, EXACT, n_jobs=n_jobs)


def test_parallel_matches_serial(rng):
    bits = _bits(rng, 4, 5)
    serial = project_features(bits, SMALL, EXACT, n_jobs=1)
    parallel = project_features(bits, SMALL, EXACT, n_jobs=2)
    assert np.array_equal(serial, parallel)
