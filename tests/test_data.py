"""Encoding, label, and clustering-order tests for the data module."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motifqk.data import (
    ANNOTATION_AXES,
    CYTOTOXICITY_THRESHOLD,
    DEFAULT_CATEGORIES,
    EMPTY,
    MOTIF_CATALOG,
    TERMINAL,
    Construct,
    EncodingLayout,
    annotate_category,
    binarize_cytotoxicity,
    correlation_order,
    decode_one_hot,
    encode_dataset,
    encode_one_hot,
    load_constructs,
    load_encoded_csv,
    write_encoded_csv,
)
from motifqk.errors import DataError

import _correlation_reference as reference


def test_catalog_has_thirteen_motifs():
    assert list(MOTIF_CATALOG) == [f"M{i}" for i in range(1, 14)]
    m1 = MOTIF_CATALOG["M1"]
    assert m1.sequence == "DYHNPGYLVLPDSTP"
    assert m1.source == "LAT"
    assert m1.domain == "SH2"
    assert MOTIF_CATALOG["M4"].partners == ("PI3K", "Grb2")
    assert MOTIF_CATALOG["M9"].partners == ("TRAF2", "TRAF1")
    assert MOTIF_CATALOG["M13"].domain is None


def test_default_categories():
    assert len(DEFAULT_CATEGORIES) == 15
    assert DEFAULT_CATEGORIES[-1] == EMPTY
    assert TERMINAL in DEFAULT_CATEGORIES


def test_annotate_category_axes():
    assert annotate_category("M9", "partner") == "TRAF2, TRAF1"
    assert annotate_category("M4", "partner") == "PI3K, Grb2"
    assert annotate_category("M13", "domain") == "None"
    for axis in ANNOTATION_AXES:
        assert annotate_category(TERMINAL, axis) == "Terminal"
        assert annotate_category(EMPTY, axis) == "Empty"
    with pytest.raises(DataError):
        annotate_category("M1", "colour")
    with pytest.raises(DataError):
        annotate_category("M99", "motif")


def test_binarize_threshold_boundary():
    assert binarize_cytotoxicity(0.0) == "high"
    assert binarize_cytotoxicity(CYTOTOXICITY_THRESHOLD - 1e-9) == "high"
    assert binarize_cytotoxicity(CYTOTOXICITY_THRESHOLD) == "low"
    assert binarize_cytotoxicity(1.0) == "low"
    with pytest.raises(DataError):
        binarize_cytotoxicity(float("nan"))


def test_encode_single_motif_bits():
    sample = encode_one_hot(Construct(motifs=("M1",), cytotoxicity=0.3))
    assert len(sample.bits) == 60
    assert sorted(np.nonzero(sample.bits)[0]) == [0, 28, 44, 59]
    assert sample.label == "high"


def test_encode_three_motif_bits():
    sample = encode_one_hot(Construct(motifs=("M2", "M5", "M9"), cytotoxicity=0.9))
    assert sorted(np.nonzero(sample.bits)[0]) == [1, 19, 38, 58]
    assert sample.label == "low"


def test_decode_round_trip():
    construct = Construct(motifs=("M3", "M7"), cytotoxicity=0.5)
    sample = encode_one_hot(construct)
    assert decode_one_hot(sample.bits) == ("M3", "M7", TERMINAL, EMPTY)


def test_decode_rejects_non_one_hot():
    bits = np.zeros(60, dtype=np.uint8)
    with pytest.raises(DataError):
        decode_one_hot(bits)
    bits[0] = 1
    bits[1] = 1
    with pytest.raises(DataError):
        decode_one_hot(bits)


def test_construct_validation():
    with pytest.raises(DataError):
        Construct(motifs=(), cytotoxicity=0.5)
    with pytest.raises(DataError):
        Construct(motifs=("M1", "M2", "M3", "M4"), cytotoxicity=0.5)
    with pytest.raises(DataError):
        Construct(motifs=("M1",), cytotoxicity=1.5)
    with pytest.raises(DataError):
        Construct(motifs=("M1",), cytotoxicity=float("nan"))


def test_layout_validation():
    with pytest.raises(DataError):
        EncodingLayout(categories=("M1", "M1", TERMINAL, EMPTY), n_positions=2)
    with pytest.raises(DataError):
        EncodingLayout(categories=("M1", "M2", EMPTY), n_positions=2)
    with pytest.raises(DataError):
        EncodingLayout(categories=("M1", TERMINAL, EMPTY), n_positions=1)
    layout = EncodingLayout(categories=("M1", TERMINAL, EMPTY), n_positions=3)
    assert layout.n_bits == 9


def test_encode_rejects_unknown_motif():
    layout = EncodingLayout(categories=("M1", TERMINAL, EMPTY), n_positions=3)
    with pytest.raises(DataError):
        encode_one_hot(Construct(motifs=("M2",), cytotoxicity=0.5), layout)


def test_encode_rejects_overfull_layout():
    layout = EncodingLayout(categories=("M1", "M2", TERMINAL, EMPTY), n_positions=2)
    with pytest.raises(DataError):
        encode_one_hot(Construct(motifs=("M1", "M2"), cytotoxicity=0.5), layout)


@given(st.lists(st.sampled_from(sorted(MOTIF_CATALOG)), min_size=1, max_size=3,
                unique=True),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_encode_popcount_and_round_trip(motifs, cyto):
    construct = Construct(motifs=tuple(motifs), cytotoxicity=cyto)
    sample = encode_one_hot(construct)
    assert sum(sample.bits) == 4
    decoded = decode_one_hot(sample.bits)
    assert decoded[:len(motifs)] == tuple(motifs)
    assert decoded[len(motifs)] == TERMINAL
    assert all(c == EMPTY for c in decoded[len(motifs) + 1:])


def test_load_constructs(raw_csv):
    constructs = load_constructs(raw_csv)
    assert len(constructs) == 10
    assert constructs[0].motifs == ("M1",)
    assert constructs[2].motifs == ("M3", "M9", "M12")
    assert constructs[2].cytotoxicity == 0.55


def test_load_constructs_rejects_gap(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("pos1,pos2,pos3,cytotoxicity\nM1,,M2,0.5\n")
    with pytest.raises(DataError):
        load_constructs(path)


def test_load_constructs_rejects_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("pos1,pos2,cytotoxicity\nM1,,0.5\n")
    with pytest.raises(DataError):
        load_constructs(path)


def test_load_constructs_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("pos1,pos2,pos3,cytotoxicity\nM1,,,not-a-number\n")
    with pytest.raises(DataError):
        load_constructs(path)


def test_encoded_csv_round_trip(tmp_path, small_dataset):
    path = tmp_path / "encoded.csv"
    write_encoded_csv(path, small_dataset)
    bits, y = load_encoded_csv(path)
    assert np.array_equal(bits, small_dataset.bits)
    assert np.array_equal(y, small_dataset.y)


def test_dataset_matrix_shape(small_dataset):
    assert small_dataset.bits.shape == (10, 60)
    assert set(np.unique(small_dataset.y)) <= {-1, 1}
    assert small_dataset.bits.sum(axis=1).tolist() == [4] * 10


def test_matthews_validation():
    # the oracle's per-pair MCC keeps its own checks
    with pytest.raises(DataError):
        reference.matthews_corr([1, 0], [1])
    with pytest.raises(DataError):
        reference.matthews_corr([], [])
    with pytest.raises(DataError):
        reference.matthews_corr([1, 2], [1, 0])
    # the empty and non-binary columns it rejected stop at correlation_order
    for X in (np.zeros((0, 2), dtype=np.uint8), np.array([[1, 1], [2, 0]])):
        with pytest.raises(DataError):
            reference.correlation_order(X)
        with pytest.raises(DataError):
            correlation_order(X)


def _order_three_columns(X):
    """Independent 3-leaf oracle: merge closest pair, leftover leads."""
    d = {}
    for i in range(3):
        for j in range(i + 1, 3):
            d[(i, j)] = 1.0 - reference.matthews_corr(X[:, i], X[:, j])
    i, j = min(d, key=lambda p: (d[p], p))
    k = ({0, 1, 2} - {i, j}).pop()
    return [k, i, j]


@given(st.integers(min_value=4, max_value=30), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_correlation_order_three_columns(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, (n, 3))
    assert correlation_order(X) == _order_three_columns(X)


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_correlation_order_is_permutation(d, seed):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, (12, d))
    order = correlation_order(X)
    assert sorted(order) == list(range(d))


def test_correlation_order_duplicates_adjacent(rng):
    X = rng.integers(0, 2, (20, 5))
    X = np.column_stack([X, X[:, 2]])
    order = correlation_order(X)
    assert abs(order.index(2) - order.index(5)) == 1


def test_correlation_order_deterministic(rng):
    X = rng.integers(0, 2, (15, 6))
    assert correlation_order(X) == correlation_order(X.copy())


@given(st.integers(min_value=1, max_value=30),
       st.integers(min_value=2, max_value=12),
       st.integers(min_value=0, max_value=2**32 - 1),
       st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_correlation_order_matches_reference(n, d, seed, constant, duplicate):
    rng = np.random.default_rng(seed)
    X = (rng.random((n, d)) < rng.random()).astype(np.uint8)
    if constant:
        X[:, rng.integers(d)] = rng.integers(2)
    if duplicate:
        X[:, rng.integers(d)] = X[:, rng.integers(d)]
    assert correlation_order(X) == reference.correlation_order(X)


def test_correlation_order_one_hot_constructs():
    # 246 distinct constructs, the size of the screen, on the 60-bit layout
    rng = np.random.default_rng(246)
    motifs = sorted(MOTIF_CATALOG)
    chosen = []
    while len(chosen) < 246:
        m = tuple(rng.choice(motifs, int(rng.integers(1, 4))).tolist())
        if m not in chosen:
            chosen.append(m)
    bits = encode_dataset([Construct(m, 0.5) for m in chosen]).bits
    order = correlation_order(bits)
    assert order == reference.correlation_order(bits)
    assert order == [
        21, 29, 0, 39, 47, 48, 11, 15, 42, 7, 23, 37, 8, 18, 41, 22, 33, 45,
        46, 12, 30, 51, 52, 1, 25, 5, 17, 36, 10, 24, 27, 38, 49, 50, 6, 19,
        35, 58, 13, 14, 2, 43, 59, 55, 56, 16, 4, 40, 3, 20, 31, 26, 34, 53,
        54, 9, 32, 57, 28, 44]


def test_correlation_order_validation():
    with pytest.raises(DataError):
        correlation_order(np.zeros((4, 1), dtype=np.uint8))
    with pytest.raises(DataError):
        correlation_order(np.zeros(4, dtype=np.uint8))
    with pytest.raises(DataError):
        correlation_order(np.zeros((0, 3), dtype=np.uint8))
    with pytest.raises(DataError):
        correlation_order(np.array([[1, 0], [2, 1]]))
    X = np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1]], dtype=bool)
    assert correlation_order(X) == reference.correlation_order(X)
