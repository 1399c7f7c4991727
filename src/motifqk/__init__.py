"""Projected quantum kernels for CAR T-cell motif cytotoxicity prediction."""

from .errors import (BackendError, ConfigError, DataError, MotifqkError,
                     SolverError)
from .data import (Construct, EncodedDataset, EncodingLayout, MOTIF_CATALOG,
                   Motif, binarize_cytotoxicity, correlation_order,
                   decode_one_hot, encode_dataset, encode_one_hot,
                   load_constructs)
from .circuits import (Circuit, CircuitStats, Gate, build_heisenberg_embedding,
                       build_zz_feature_map, circuit_stats, simplify)
from .statevector import bloch_vectors, pauli_expectation, simulate
from .pauliprop import (ObservableSum, backpropagate_observable,
                        obp_expectations)
from .features import (BackendConfig, EmbeddingConfig, feature_names,
                       load_feature_csv, project_features, write_feature_csv)
from .kernels import (KernelSpec, Spectrum, geometric_difference,
                      jacobi_eigh, kernel_matrix, model_complexity,
                      resolve_gamma, spectrum)
from .svm import (GridConfig, GridSearchResult, SvmModel, grid_search,
                  predict, smo_train, stratified_folds, weighted_f1)
from .evaluation import (EvalReport, ExperimentConfig, SplitPlan,
                         config_from_ini, fisher_exact, make_splits,
                         per_motif_analysis, run_experiment, screen_advantage)

__version__ = "0.1.0"
