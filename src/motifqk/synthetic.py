"""Constructed datasets with known structure, for tests and the benchmark."""

from __future__ import annotations

from itertools import product

from .data import (Construct, EncodedDataset, EncodingLayout, TERMINAL, EMPTY,
                   encode_dataset)


def separable_layout() -> EncodingLayout:
    """Three motifs + terminal + empty over three positions: 15 bits."""
    return EncodingLayout(("M1", "M2", "M3", TERMINAL, EMPTY), n_positions=3)


def make_separable_dataset() -> EncodedDataset:
    """Twelve constructs over motifs M1-M3 labeled 'contains M1'.

    The label is an OR of three indicator bits, so it is linearly separable
    both on the raw one-hot bits and on any feature map that keeps per-bit
    information; classes are balanced 6/6.
    """
    motif_sets = [(m,) for m in ("M1", "M2", "M3")] + \
        [tuple(p) for p in product(("M1", "M2", "M3"), repeat=2)]
    constructs = [
        Construct(ms, 0.3 if "M1" in ms else 0.9) for ms in motif_sets
    ]
    return encode_dataset(constructs, separable_layout())
