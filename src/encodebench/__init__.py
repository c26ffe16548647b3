"""Banded ridge encoding models with leakage-aware cross-validation,
autocorrelation controls, and variance-partitioning metrics."""

__version__ = "0.1.0"

from .errors import DataError, ManifestError, MatrixDataError, MatrixFormatError
from .features import (
    FeatureSpace,
    build_oasm,
    build_sentence_length,
    build_sentence_position,
    build_word_position,
    oasm_sigma_grid,
    sum_pool,
    sweep_oasm_sigma,
    zscore_fit_apply,
)
from .matrixio import (
    LoadedDataset,
    NeuralRecording,
    load_manifest,
    load_matrix,
    save_manifest,
    save_matrix,
)
from .metrics import (
    build_comparison_report,
    clip_and_average,
    layered_best,
    omega,
    phi,
    r2_oos,
)
from .ridge import (
    BandedSearchConfig,
    FitResult,
    RidgeConfig,
    banded_search,
    default_alpha_grid,
    enumerate_masks,
    ridge_solve,
)
from .splits import (
    SplitPlan,
    plan_blank,
    plan_fedorenko,
    plan_grouped,
    plan_pereira,
    shuffle_plan,
)
from .stats import bh_fdr, chance_level_test, paired_squared_error_ttest
from .synthgen import SynthSpec, generate, preset, write_dataset
from .pipeline import AnalysisConfig, run_analysis, star_predictions
