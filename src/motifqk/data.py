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
from dataclasses import dataclass

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)

TERMINAL = "M14"
EMPTY = "empty"
HIGH, LOW = "high", "low"
LABEL_VALUES = {HIGH: +1, LOW: -1}
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


@dataclass(frozen=True)
class EncodedSample:
    bits: tuple[int, ...]
    label: str

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise DataError("encoded bits must be 0/1")
        if self.label not in LABEL_VALUES:
            raise DataError(f"label must be one of {sorted(LABEL_VALUES)}")


@dataclass(frozen=True)
class EncodedDataset:
    """Encoded samples plus the layout they were encoded with."""

    samples: tuple[EncodedSample, ...]
    layout: EncodingLayout

    def __post_init__(self):
        for s in self.samples:
            if len(s.bits) != self.layout.n_bits:
                raise DataError("sample width does not match layout")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def bits(self) -> np.ndarray:
        return np.array([s.bits for s in self.samples], dtype=np.uint8)

    @property
    def y(self) -> np.ndarray:
        return np.array([LABEL_VALUES[s.label] for s in self.samples],
                        dtype=np.int64)


def binarize_cytotoxicity(value: float,
                          threshold: float = CYTOTOXICITY_THRESHOLD) -> str:
    """Map a cytotoxicity score to ``high`` (< threshold) or ``low``."""
    if not math.isfinite(value):
        raise DataError(f"non-finite cytotoxicity {value!r}")
    return HIGH if value < threshold else LOW


def load_constructs(path) -> list[Construct]:
    """Read a construct screen CSV with columns pos1,pos2,pos3,cytotoxicity.

    Empty position cells mean the construct is shorter than three motifs;
    filled positions must be contiguous from pos1.
    """
    required = ["pos1", "pos2", "pos3", "cytotoxicity"]
    constructs = []
    with open(path, newline="", encoding="utf-8") as fh:
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
    logger.info("loaded %d constructs from %s", len(constructs), path)
    return constructs


def encode_one_hot(construct: Construct,
                   layout: EncodingLayout = EncodingLayout()) -> EncodedSample:
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
    return EncodedSample(tuple(bits),
                         binarize_cytotoxicity(construct.cytotoxicity))


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
    samples = tuple(encode_one_hot(c, layout) for c in constructs)
    return EncodedDataset(samples, layout)


def write_encoded_csv(path, dataset: EncodedDataset) -> None:
    """Write bit columns b0..b{n-1} plus a final +1/-1 label column."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"b{i}" for i in range(dataset.layout.n_bits)]
                        + ["label"])
        for s in dataset.samples:
            writer.writerow(list(s.bits) + [LABEL_VALUES[s.label]])


def load_encoded_csv(path):
    """Read an encoded CSV back as (bits uint8 matrix, labels +1/-1)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-1] != "label" or \
                header[:-1] != [f"b{i}" for i in range(len(header) - 1)]:
            raise DataError(f"{path}: malformed encoded-data header")
        width = len(header) - 1
        rows, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: wrong column count")
            try:
                bits = [int(v) for v in row[:width]]
                lab = int(row[-1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer cell") from None
            if any(b not in (0, 1) for b in bits) or lab not in (-1, 1):
                raise DataError(f"{path}:{lineno}: bits must be 0/1 and "
                                "label -1/+1")
            rows.append(bits)
            labels.append(lab)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return (np.array(rows, dtype=np.uint8),
            np.array(labels, dtype=np.int64))


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
