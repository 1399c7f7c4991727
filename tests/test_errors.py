"""The shared rules for config values in ``motifqk.errors``."""

import math

import numpy as np
import pytest

from motifqk.circuits import Circuit, Gate, build_heisenberg_embedding, \
    build_zz_feature_map
from motifqk.errors import ConfigError, check_real
from motifqk.features import BackendConfig
from motifqk.kernels import KernelSpec, check_lam
from motifqk.pauliprop import ObservableSum, backpropagate_observable
from motifqk.svm import check_c, check_stopping

# every real parameter a config or call takes, set to a value v
REAL_SITES = {
    "obp threshold": lambda v: BackendConfig("obp", threshold=v),
    "kernel gamma": lambda v: KernelSpec("rbf", gamma=v),
    "kernel coef0": lambda v: KernelSpec("sigmoid", coef0=v),
    "propagation threshold": lambda v: backpropagate_observable(
        Circuit(1, ()), ObservableSum.single_qubit_stack(1), v),
    "gate angle": lambda v: Gate("RX", (0,), v),
    "C": check_c,
    "SMO tol": lambda v: check_stopping(v, 10),
    "lam": check_lam,
    "E1 scale": lambda v: build_zz_feature_map([1.0], 1, v),
    "E2 scale": lambda v: build_heisenberg_embedding([1.0], 1, v, 0),
}


@pytest.mark.parametrize("site", sorted(REAL_SITES))
def test_real_parameters_refuse_a_bool(site):
    # True and False pass every range test as 1 and 0; a config holding
    # one would spell it True in its descriptor, hash or JSON
    set_to = REAL_SITES[site]
    set_to(1.0)
    for value in (True, False, np.True_):
        with pytest.raises(ConfigError, match="must be finite"):
            set_to(value)


def test_check_real_bounds_and_types():
    for value in (0, 2, 0.5, np.float64(0.5), np.int64(3), np.float32(1.5)):
        check_real(value, "x", 0.0)
    check_real(-1e300, "x")
    with pytest.raises(ConfigError, match=r"^x must be finite and > 0, got 0$"):
        check_real(0, "x", 0.0, inclusive=False)
    with pytest.raises(ConfigError, match=r"^x must be finite and >= 1, got "):
        check_real(0.5, "x", 1.0)
    for value in (math.nan, math.inf, -math.inf, None, "1.0", 1j):
        with pytest.raises(ConfigError, match=r"^x must be finite, got "):
            check_real(value, "x")
