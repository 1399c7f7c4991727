"""CAR T-cell signaling-motif data: catalog, loading, one-hot encoding.

Constructs carry 1-3 signaling motifs (M1-M13) followed by a terminating
motif (M14); shorter constructs are padded with an explicit empty class so
every sample occupies the same number of positions. With the default layout
of 15 categories over 4 positions each sample encodes to 60 bits.
"""

from __future__ import annotations

import csv
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)

TERMINAL = "M14"
EMPTY = "empty"
CYTOTOXICITY_THRESHOLD = 0.62
ANNOTATION_AXES = ("motif", "source", "domain", "partner")


@dataclass(frozen=True)
class Motif:
    """Catalog entry for one signaling motif."""

    id: str
    sequence: str
    source: str
    partners: tuple[str, ...]
    domain: str | None = None
    consensus: str = ""


MOTIF_CATALOG: dict[str, Motif] = {
    m.id: m
    for m in (
        Motif("M1", "DYHNPGYLVLPDSTP", "LAT", ("PLCγ1",), "SH2",
              "Yx(A/I/L/V)(A/F/I/L/V/W/Y/P)"),
        Motif("M2", "EELDENYVPMNPNSPP", "Gab1", ("PI3K",), "SH2", "YxxM"),
        Motif("M3", "EEGAPDYENLQELNHP", "LAT", ("Grb2",), "SH2", "YXNX"),
        Motif("M4", "LGSNQEEAYVTMSSFYQNQ", "IL7Rα", ("PI3K", "Grb2"), "SH2",
              "YxxM, YxNx"),
        Motif("M5", "LPMDEVYESPFADEEIR", "SYK", ("Vav1",), "SH2", "Y(M/L/E)xP"),
        Motif("M6", "KPMAESITYAAVARHSAG", "LAIR1", ("SHP-1", "SHP-2"), "SH2",
              "(S/I/V/L)xYxx(I/V/L)"),
        Motif("M7", "LPTWSTPVQPMALIVLG", "CD4", ("Lck",), "SH3", "PxxPx(R/K)"),
        Motif("M8", "PAPSIDRSTKPPLDRSL", "SLP76", ("GADS",), "SH3", "RxxK"),
        Motif("M9", "GSNTAAPVQETLHGCQ", "CD40", ("TRAF2", "TRAF1"), "TRAF-C",
              "Px(Q/E)E"),
        Motif("M10", "DDSLPHPQQATDDSGHES", "LMP1", ("TRAF2", "TRAF1"), "TRAF-C",
              "Px(Q/E)xxD, Px(Q/E)xT"),
        Motif("M11", "KAPHAKQEPQEINFPDDL", "CD40", ("TRAF6",), "TRAF-C", "PxExxZ"),
        Motif("M12", "GSGPGSRPTAVEGLALGSS", "IRAK1", ("Pellino protein", "TIFA"),
              "FHA", "Txx(E/D), Txx(I/L/V)"),
        Motif("M13", "SAGSAGSAGSAGSAGSAG", "Synthetic", ("Non-functional spacer",),
              None, ""),
    )
}

DEFAULT_CATEGORIES: tuple[str, ...] = tuple(
    f"M{i}" for i in range(1, 15)
) + (EMPTY,)


@dataclass(frozen=True)
class Construct:
    """One CAR construct: its ordered motifs and measured cytotoxicity score."""

    motifs: tuple[str, ...]
    cytotoxicity: float

    def __post_init__(self):
        if not 1 <= len(self.motifs) <= 3:
            raise DataError(
                f"construct must carry 1-3 motifs, got {len(self.motifs)}")
        for m in self.motifs:
            if m not in MOTIF_CATALOG:
                raise DataError(f"unknown motif id {m!r}")
        if not (isinstance(self.cytotoxicity, float)
                and math.isfinite(self.cytotoxicity)
                and 0.0 <= self.cytotoxicity <= 1.0):
            raise DataError(
                f"cytotoxicity must be a fraction in [0, 1], got "
                f"{self.cytotoxicity!r}")


@dataclass(frozen=True)
class EncodingLayout:
    """One-hot layout: which categories exist and how many positions there are.

    Bit ``15*p + c`` (generally ``len(categories)*p + c``) is set when
    position ``p`` holds category index ``c``. The category list must contain
    the terminal and empty classes; the default is the full M1-M14 + empty
    alphabet over four positions (60 bits).
    """

    categories: tuple[str, ...] = DEFAULT_CATEGORIES
    n_positions: int = 4

    def __post_init__(self):
        if len(set(self.categories)) != len(self.categories):
            raise DataError("layout categories must be unique")
        if TERMINAL not in self.categories or EMPTY not in self.categories:
            raise DataError(
                f"layout categories must include {TERMINAL!r} and {EMPTY!r}")
        if self.n_positions < 2:
            raise DataError("layout needs at least 2 positions")

    @property
    def n_bits(self) -> int:
        return len(self.categories) * self.n_positions

    def category_index(self, category: str) -> int:
        try:
            return self.categories.index(category)
        except ValueError:
            raise DataError(f"category {category!r} not in layout") from None


@dataclass(frozen=True, eq=False)
class EncodedDataset:
    """An encoded screen: one row of 0/1 bits per sample, +1 (high) / -1
    (low) labels, and the layout the bits follow. Both arrays are
    read-only."""

    bits: np.ndarray
    y: np.ndarray
    layout: EncodingLayout

    def __post_init__(self):
        bits, y = np.asarray(self.bits), np.asarray(self.y)
        if bits.ndim != 2 or bits.shape[1] != self.layout.n_bits:
            raise DataError("sample width does not match layout")
        if y.shape != bits.shape[:1]:
            raise DataError("need one label per sample")
        if not np.array_equal(bits, bits != 0):  # every entry 0 or 1
            raise DataError("encoded bits must be 0/1")
        if not (np.abs(y) == 1).all():
            raise DataError("labels must be -1/+1")
        # copies, so the caller's arrays stay writable and cannot alias
        bits, y = bits.astype(np.uint8), y.astype(np.int64)
        bits.flags.writeable = y.flags.writeable = False
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return len(self.y)


def binarize_cytotoxicity(value: float,
                          threshold: float = CYTOTOXICITY_THRESHOLD) -> int:
    """Map a cytotoxicity score to +1 (high, < threshold) or -1 (low)."""
    if not math.isfinite(value):
        raise DataError(f"non-finite cytotoxicity {value!r}")
    return 1 if value < threshold else -1


@contextmanager
def open_utf8(path):
    """Open a UTF-8 text file for CSV reading; bytes that do not decode
    are a ``DataError`` that names the file."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc})") from None


def load_constructs(path) -> list[Construct]:
    """Read a construct screen CSV with columns pos1,pos2,pos3,cytotoxicity.

    Empty position cells mean the construct is shorter than three motifs;
    filled positions must be contiguous from pos1. A file with no data
    rows is a ``DataError``, as in ``read_labelled_csv``.
    """
    required = ["pos1", "pos2", "pos3", "cytotoxicity"]
    constructs = []
    with open_utf8(path) as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise DataError(f"{path}: missing columns {missing}")
        for lineno, row in enumerate(reader, start=2):
            cells = [(row.get(c) or "").strip() for c in required[:3]]
            motifs = [c for c in cells if c]
            if cells[:len(motifs)] != motifs:
                raise DataError(
                    f"{path}:{lineno}: motif positions must be filled "
                    "left to right")
            try:
                score = float(row["cytotoxicity"])
            except (TypeError, ValueError):
                raise DataError(
                    f"{path}:{lineno}: bad cytotoxicity "
                    f"{row['cytotoxicity']!r}") from None
            try:
                constructs.append(Construct(tuple(motifs), score))
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    if not constructs:
        raise DataError(f"{path}: no data rows")
    logger.info("loaded %d constructs from %s", len(constructs), path)
    return constructs


def encode_one_hot(construct: Construct,
                   layout: EncodingLayout = EncodingLayout()
                   ) -> tuple[int, ...]:
    """One-hot encode a construct: motifs, then the terminal, then padding."""
    filled = list(construct.motifs) + [TERMINAL]
    if len(filled) > layout.n_positions:
        raise DataError(
            f"construct with {len(construct.motifs)} motifs does not fit in "
            f"{layout.n_positions} positions")
    filled += [EMPTY] * (layout.n_positions - len(filled))
    width = len(layout.categories)
    bits = [0] * layout.n_bits
    for pos, category in enumerate(filled):
        bits[width * pos + layout.category_index(category)] = 1
    return tuple(bits)


def decode_one_hot(bits, layout: EncodingLayout = EncodingLayout()
                   ) -> tuple[str, ...]:
    """Invert :func:`encode_one_hot`, validating the one-hot structure."""
    bits = tuple(int(b) for b in bits)
    if len(bits) != layout.n_bits:
        raise DataError(
            f"expected {layout.n_bits} bits, got {len(bits)}")
    width = len(layout.categories)
    out = []
    for pos in range(layout.n_positions):
        block = bits[width * pos:width * (pos + 1)]
        if sum(block) != 1:
            raise DataError(f"position {pos} is not one-hot")
        out.append(layout.categories[block.index(1)])
    return tuple(out)


def encode_dataset(constructs,
                   layout: EncodingLayout = EncodingLayout()) -> EncodedDataset:
    """One bit row and one +1/-1 label per construct."""
    constructs = list(constructs)
    # one bytes buffer is a fraction of the cost of np.array over tuples
    rows = b"".join(bytes(encode_one_hot(c, layout)) for c in constructs)
    bits = np.frombuffer(rows, dtype=np.uint8).reshape(len(constructs),
                                                      layout.n_bits)
    y = [binarize_cytotoxicity(c.cytotoxicity) for c in constructs]
    return EncodedDataset(bits, y, layout)


def write_encoded_csv(path, dataset: EncodedDataset) -> None:
    """Write bit columns b0..b{n-1} plus a final +1/-1 label column."""
    write_labelled_csv(path, [f"b{i}" for i in range(dataset.layout.n_bits)],
                       str, dataset.bits.tolist(), dataset.y.tolist())


def write_labelled_csv(path, columns, cell, rows, labels) -> None:
    """Write what ``read_labelled_csv`` reads: the header ``columns`` and
    ``label``, then each row's cells as ``cell`` formats them and its label."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns) + ["label"])
        for row, label in zip(rows, labels):
            writer.writerow([cell(v) for v in row] + [int(label)])


def read_labelled_csv(path, columns, cell):
    """(rows of cells, int64 -1/+1 labels) from a CSV whose header is
    ``columns(n)`` for its n data columns and then ``label``; ``cell``
    reads one data cell and raises ValueError on a bad one. Every defect
    is a ``DataError`` that names the file, and the line of a bad row."""
    with open_utf8(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-1] != "label":
            raise DataError(f"{path} has no label column")
        names = header[:-1]
        if not names or names != columns(len(names)):
            raise DataError(f"{path}: malformed header")
        rows, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: wrong column count")
            try:
                rows.append([cell(v) for v in row[:-1]])
                labels.append(int(row[-1]))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            if labels[-1] not in (-1, 1):
                raise DataError(f"{path}:{lineno}: label must be -1/+1, "
                                f"got {labels[-1]}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    return rows, np.array(labels, dtype=np.int64)


def _bit(text: str) -> int:
    bit = int(text)
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0/1, got {bit}")
    return bit


def load_encoded_csv(path):
    """Read an encoded CSV back as (bits uint8 matrix, labels +1/-1)."""
    rows, labels = read_labelled_csv(
        path, lambda n: [f"b{i}" for i in range(n)], _bit)
    return np.array(rows, dtype=np.uint8), labels


def correlation_order(bits) -> list[int]:
    """Dendrogram leaf order from complete-linkage clustering of bit columns.

    Distance between columns is 1 - MCC, with the Matthews correlation
    formed exactly from integer co-occurrence counts (0 when a column is
    constant). Ties in the merge step go to the pair with the smaller
    (older) cluster ids, which makes the output a deterministic function of
    the input matrix.
    """
    X = np.asarray(bits)
    if (X.ndim != 2 or X.shape[0] == 0 or X.shape[1] < 2
            or not np.isin(X, (0, 1)).all()):
        raise DataError("correlation_order needs a 0/1 matrix with >= 1 row "
                        "and >= 2 columns")
    n, d = X.shape
    X = X.astype(np.int64)
    # n11 n00 - n10 n01 = n n11 - ones_i ones_j; as Python ints both
    # products stay exact at any n until their one rounding to float
    n11 = (X.T @ X).astype(object)
    ones = np.diag(n11)
    spread = ones * (n - ones)
    denom = np.sqrt(np.outer(spread, spread).astype(float))
    dist = 1.0 - np.divide((n * n11 - np.outer(ones, ones)).astype(float),
                           denom, out=np.zeros((d, d)), where=denom > 0)
    np.fill_diagonal(dist, np.inf)
    ids = list(range(d))  # the cluster id each slot holds
    members = [[i] for i in range(d)]
    for new_id in range(d, 2 * d - 1):
        rows, cols = np.nonzero(dist == dist.min())
        i, j = min(zip(rows.tolist(), cols.tolist()),
                   key=lambda p: (ids[p[0]], ids[p[1]]))
        members[i] += members[j]
        ids[i] = new_id
        dist[i] = dist[:, i] = np.maximum(dist[i], dist[j])
        dist[j] = dist[:, j] = np.inf  # slot j is merged away
    return members[i]


def annotate_category(category: str, axis: str) -> str:
    """Annotation label for one category on one analysis axis.

    Axes: ``motif`` (the category itself), ``source`` (source protein),
    ``domain`` (binding domain, ``None`` when absent), ``partner`` (joined
    binding-partner list). The terminal and empty classes map to fixed
    labels on every axis.
    """
    if axis not in ANNOTATION_AXES:
        raise DataError(f"unknown annotation axis {axis!r}")
    if category == EMPTY:
        return "Empty"
    if category == TERMINAL:
        return "Terminal"
    m = MOTIF_CATALOG.get(category)
    if m is None:
        raise DataError(f"unknown category {category!r}")
    if axis == "motif":
        return m.id
    if axis == "source":
        return m.source
    if axis == "domain":
        return m.domain if m.domain else "None"
    return ", ".join(m.partners)
