"""Shared fixtures: a small raw construct CSV and its encoded form; the
Hypothesis profiles."""

import numpy as np
import pytest
from hypothesis import settings

from motifqk.data import (
    DEFAULT_CATEGORIES,
    Construct,
    EncodingLayout,
    encode_dataset,
)

# Draws for tests that leave max_examples to the profile: 150 by default;
# the CI workflow selects "ci" with --hypothesis-profile=ci, and a failing
# draw there prints the blob that replays it with @reproduce_failure.
settings.register_profile("default", max_examples=150)
settings.register_profile("ci", max_examples=1000, print_blob=True)

RAW_ROWS = [
    ("M1", "", "", 0.30),
    ("M2", "M5", "", 0.85),
    ("M3", "M9", "M12", 0.55),
    ("M4", "", "", 0.70),
    ("M6", "M7", "", 0.20),
    ("M8", "", "", 0.95),
    ("M10", "M11", "M13", 0.40),
    ("M12", "", "", 0.61),
    ("M5", "M1", "", 0.62),
    ("M13", "M2", "M4", 0.10),
]


@pytest.fixture
def raw_csv(tmp_path):
    path = tmp_path / "constructs.csv"
    lines = ["pos1,pos2,pos3,cytotoxicity"]
    lines += [f"{a},{b},{c},{v}" for a, b, c, v in RAW_ROWS]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def small_dataset():
    constructs = [
        Construct(motifs=tuple(m for m in row[:3] if m), cytotoxicity=row[3])
        for row in RAW_ROWS
    ]
    layout = EncodingLayout(categories=DEFAULT_CATEGORIES, n_positions=4)
    return encode_dataset(constructs, layout)


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)
