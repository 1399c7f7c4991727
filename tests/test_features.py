"""Projected-feature extraction tests: widths, caching, backends."""

import hashlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from motifqk import features
from motifqk.circuits import simplify
from motifqk.data import Construct, MOTIF_CATALOG, correlation_order, \
    encode_dataset
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
from motifqk.pauliprop import ObservableSum, PauliString, \
    backpropagate_observable, obp_expectations

OBP0 = BackendConfig(kind="obp", threshold=0.0)
EXACT = BackendConfig(kind="exact")
PRODUCTION_EMBEDDINGS = (
    [EmbeddingConfig("e1", reps=r, scale=s) for r in features.PRODUCTION_REPS
     for s in features.PRODUCTION_SCALES]
    + [EmbeddingConfig("e2", steps=k, scale=s, seed=0)
       for k in features.PRODUCTION_STEPS for s in features.PRODUCTION_SCALES])
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
                   {"kind": "e1", "test_mode": True}):
        with pytest.raises(ConfigError):
            EmbeddingConfig(**fields)
    cfg = EmbeddingConfig(kind="e1", reps=3, scale=0.7, test_mode=True)
    assert cfg.n_qubits(60) == 60


def test_embedding_qubit_counts():
    e1 = EmbeddingConfig(kind="e1", reps=4, scale=math.pi)
    e2 = EmbeddingConfig(kind="e2", steps=4, scale=math.pi, seed=1)
    assert e1.n_qubits(60) == 60
    assert e2.n_qubits(60) == 61


def test_identity_embedding_needs_test_mode():
    with pytest.raises(ConfigError):
        EmbeddingConfig(kind="e1", reps=0)
    cfg = EmbeddingConfig(kind="e1", reps=0, test_mode=True)
    assert cfg.n_qubits(5) == 5
    assert cfg.build(np.zeros(3)).gates == ()


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
    with pytest.raises(ConfigError, match="needs shots >= 1"):
        BackendConfig.parse("shots:0", seed=0)


def test_backend_validation():
    with pytest.raises(ConfigError, match="needs shots >= 1"):
        BackendConfig(kind="shots", shots=0, seed=0)
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
    # exact and shots keys carry the "|readout=cluster" tag, so rows of the
    # whole-register readout (different in the last bits) are not reused;
    # shots keys also carry "|bloch=projected", so rows cached before shots
    # triples were projected onto the Bloch ball (some outside it) are not
    assert paths == [
        "c/91/9151c27b60de44594e5736a4fede100ccc676ca25fe77d24cd12dd3546e40890.npy",
        "c/fb/fb7210aa6c840d259c82aaac9d53bcd905226353ade5b65c7bcdce88304416cd.npy",
        "c/f6/f644faf896ee870cc1a52119d705bb4228b751699a32d2145172dc5199f74bd0.npy",
        "c/20/20c902d218a96c5ed1fa8625ab0199c3a93c79053ab315e262ce3f591aa6096c.npy",
        "c/90/90505198255147c6418cfacc576ce3e68b5f1275357b770e03cb5f8185844a31.npy",
        "c/62/62a31565b7910b9786b68a2d0701b1b48c74c1d17215fed0634e8e75b0b9a4f9.npy",
    ]


def test_untruncated_obp_cache_path_is_tagged():
    # obp:0 rows of the simplified circuit differ from those of the built
    # circuit in the last bits, so their keys carry a tag and the untagged
    # key of rows from the built circuit is never read
    e2 = EmbeddingConfig("e2", steps=4, scale=math.pi / 2, seed=0)
    path = _cache_path(Path("c"), "01" * 30, e2, BackendConfig.parse("obp:0"))
    assert path.as_posix() == ("c/df/df51af31d44bb9678d229a99b0999f7ef658"
                               "15f3e5fea59c9ec2a2a1d00a3f5a.npy")
    untagged = f"{'01' * 30}|{e2.descriptor()}|obp:0.0"
    assert path.stem != hashlib.sha256(untagged.encode()).hexdigest()


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


def _one_hot_rows(n, seed):
    rng = np.random.default_rng(seed)
    motifs = sorted(MOTIF_CATALOG)
    return encode_dataset(
        [Construct(tuple(str(m) for m in rng.choice(motifs, rng.integers(1, 4))),
                   0.5) for _ in range(n)]).bits


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


def test_single_qubit_stack_matches_stacked_sums():
    for n in (1, 5, 61, 64):
        old = ObservableSum.stack(
            ObservableSum({PauliString.single(q, b): 1.0})
            for q in range(n) for b in "XYZ")
        new = ObservableSum.single_qubit_stack(n)
        assert new.n_obs == old.n_obs == 3 * n
        for field in ("xs", "zs", "cs", "ids"):
            a, b = getattr(new, field), getattr(old, field)
            assert a.dtype == b.dtype and np.array_equal(a, b)
    with pytest.raises(BackendError):
        ObservableSum.single_qubit_stack(65)


def test_obp_beyond_64_qubits_is_a_backend_error():
    # a typed error (exit 4), not an OverflowError from the readout masks
    emb = EmbeddingConfig(kind="e1", reps=1, scale=1.0, test_mode=True)
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


def test_feature_width_e2(rng):
    bits = _bits(rng, 2, 60)
    emb = EmbeddingConfig(kind="e2", steps=1, scale=0.9, seed=5, test_mode=True)
    feats = project_features(bits, emb, BackendConfig(kind="obp", threshold=0.05))
    assert feats.shape == (2, 183)


def test_identity_embedding_features():
    emb = EmbeddingConfig(kind="e1", reps=0, test_mode=True)
    bits = np.array([[0, 1, 0], [1, 0, 1]], dtype=np.uint8)
    feats = project_features(bits, emb, EXACT)
    assert feats.shape == (2, 9)
    assert np.allclose(feats[:, 0::3], 0.0)
    assert np.allclose(feats[:, 1::3], 0.0)
    assert np.allclose(feats[:, 2::3], 1.0)


def test_exact_and_obp_agree_small(rng):
    bits = _bits(rng, 4, 6)
    emb = EmbeddingConfig(kind="e1", reps=2, scale=1.1, test_mode=True)
    a = project_features(bits, emb, EXACT)
    b = project_features(bits, emb, OBP0)
    assert np.allclose(a, b, atol=1e-11)


def test_duplicate_rows_identical_features(rng):
    row = rng.integers(0, 2, 8).astype(np.uint8)
    bits = np.stack([row, row, row])
    emb = EmbeddingConfig(kind="e1", reps=1, scale=0.8, test_mode=True)
    feats = project_features(bits, emb, EXACT)
    assert np.array_equal(feats[0], feats[1])
    assert np.array_equal(feats[0], feats[2])


def test_bloch_norm_bound(rng):
    bits = _bits(rng, 5, 7)
    emb = EmbeddingConfig(kind="e2", steps=2, scale=1.4, seed=3, test_mode=True)
    feats = project_features(bits, emb, EXACT)
    radii = (feats.reshape(5, -1, 3) ** 2).sum(axis=2)
    assert (radii <= 1.0 + 1e-9).all()


def test_exact_readout_off_bloch_ball_is_backend_error(monkeypatch):
    # a typed error, not an assert, so `python -O` still catches it
    import motifqk.statevector as sv_mod

    monkeypatch.setattr(sv_mod, "pauli_expectation", lambda *args: 1.0)
    emb = EmbeddingConfig(kind="e1", reps=1, scale=1.0, test_mode=True)
    with pytest.raises(BackendError, match="Bloch"):
        project_features(np.array([[0, 1]]), emb, EXACT)


def test_truncated_triples_projected_onto_bloch_ball():
    # this dense row at threshold 0.1 overshoots the ball before the fix
    bits = np.random.default_rng(3).integers(0, 2, (1, 60)).astype(np.uint8)
    emb = EmbeddingConfig(kind="e2", steps=4, scale=math.pi / 2, seed=7)
    circuit = emb.build(bits[0].astype(float))
    raw = np.empty((circuit.n_qubits, 3))
    for q in range(circuit.n_qubits):
        for k, b in enumerate("XYZ"):
            obs = ObservableSum({PauliString.single(q, b): 1.0})
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


def test_cache_round_trip(tmp_path, rng):
    bits = _bits(rng, 3, 5)
    emb = EmbeddingConfig(kind="e1", reps=1, scale=1.0, test_mode=True)
    first = project_features(bits, emb, EXACT, cache_dir=tmp_path)
    files = list(tmp_path.rglob("*.npy"))
    assert len(files) == 3
    second = project_features(bits, emb, EXACT, cache_dir=tmp_path)
    assert np.array_equal(first, second)


def test_cache_is_keyed_by_config(tmp_path, rng):
    bits = _bits(rng, 2, 5)
    emb1 = EmbeddingConfig(kind="e1", reps=1, scale=1.0, test_mode=True)
    emb2 = EmbeddingConfig(kind="e1", reps=2, scale=1.0, test_mode=True)
    project_features(bits, emb1, EXACT, cache_dir=tmp_path)
    n_first = len(list(tmp_path.rglob("*.npy")))
    project_features(bits, emb2, EXACT, cache_dir=tmp_path)
    assert len(list(tmp_path.rglob("*.npy"))) == 2 * n_first


@pytest.mark.parametrize("damage", ["not an npy file", "wrong length"])
def test_corrupt_cache_entry_is_a_data_error(tmp_path, rng, damage):
    bits = _bits(rng, 1, 4)
    emb = EmbeddingConfig(kind="e1", reps=1, scale=1.0, test_mode=True)
    project_features(bits, emb, EXACT, cache_dir=tmp_path)
    (entry,) = tmp_path.rglob("*.npy")
    if damage == "wrong length":
        np.save(entry, np.zeros(5))
    else:
        entry.write_bytes(b"garbage")
    with pytest.raises(DataError, match="corrupt feature cache entry"):
        project_features(bits, emb, EXACT, cache_dir=tmp_path)


def test_cache_actually_short_circuits(tmp_path, rng, monkeypatch):
    bits = _bits(rng, 2, 4)
    emb = EmbeddingConfig(kind="e1", reps=1, scale=1.0, test_mode=True)
    want = project_features(bits, emb, EXACT, cache_dir=tmp_path)

    import motifqk.features as feats_mod

    def boom(*args, **kwargs):
        raise AssertionError("cache miss")

    monkeypatch.setattr(feats_mod, "_sample_features", boom)
    got = project_features(bits, emb, EXACT, cache_dir=tmp_path)
    assert np.array_equal(want, got)


def test_shot_backend_determinism(rng):
    bits = _bits(rng, 2, 4)
    emb = EmbeddingConfig(kind="e1", reps=1, scale=0.9, test_mode=True)
    a = project_features(bits, emb, BackendConfig(kind="shots", shots=200, seed=5))
    b = project_features(bits, emb, BackendConfig(kind="shots", shots=200, seed=5))
    c = project_features(bits, emb, BackendConfig(kind="shots", shots=200, seed=6))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert (np.abs(a) <= 1.0).all()


def test_shot_estimates_near_exact(rng):
    bits = _bits(rng, 2, 4)
    emb = EmbeddingConfig(kind="e1", reps=1, scale=0.9, test_mode=True)
    exact = project_features(bits, emb, EXACT)
    shots = project_features(
        bits, emb, BackendConfig(kind="shots", shots=200_000, seed=2))
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
    emb = EmbeddingConfig(kind="e1", reps=1, scale=1.0, test_mode=True)
    with pytest.raises(DataError):
        project_features(np.array([[0, 2]]), emb, EXACT)
    with pytest.raises(DataError):
        project_features(np.zeros((0, 4)), emb, EXACT)


def test_project_features_rejects_nonpositive_n_jobs(rng, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(features, "ProcessPoolExecutor", no_pool)
    emb = EmbeddingConfig(kind="e1", reps=1, scale=1.0, test_mode=True)
    for n_jobs in (0, -4):
        with pytest.raises(ConfigError, match="n_jobs"):
            project_features(_bits(rng, 2, 3), emb, EXACT, n_jobs=n_jobs)


def test_parallel_matches_serial(rng):
    bits = _bits(rng, 4, 5)
    emb = EmbeddingConfig(kind="e1", reps=1, scale=1.0, test_mode=True)
    serial = project_features(bits, emb, EXACT, n_jobs=1)
    parallel = project_features(bits, emb, EXACT, n_jobs=2)
    assert np.array_equal(serial, parallel)
