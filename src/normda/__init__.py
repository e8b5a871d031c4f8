"""normda: benchmarking split-aware z-score normalization strategies against
shallow and deep domain-adaptation methods on multi-domain data."""

from .dataset import (
    DomainDataset,
    DomainKey,
    Fold,
    SyntheticShiftConfig,
    deap_valence_labels,
    generate_synthetic,
    hlso_folds,
    load_csv,
    loso_folds,
    save_csv,
)
from .normalize import FeatureStats, NormStrategy, apply_strategy, compute_stats, zscore
from .shallow import (
    KernelSpec,
    KpcaModel,
    TcaModel,
    gram,
    kpca_fit,
    kpca_transform,
    median_heuristic_gamma,
    mmd_sq,
    tca_fit,
    tca_transform,
)
from .svm import SvmModel, decision_values, svm_predict, svm_train
from .deep import (
    AddaModel,
    DannModel,
    MlpSpec,
    PlainModel,
    TrainConfig,
    adam_step,
    backward,
    forward,
    grl_backward,
    train_adda,
    train_dann,
    train_plain,
)
from .features import (
    BandSpec,
    CspModel,
    SignalEpoch,
    butter_bandpass,
    csp_features,
    csp_fit,
    differential_entropy,
    standard_bands,
)
from .bench import (
    ExperimentConfig,
    ExperimentReport,
    MethodSpec,
    accuracy,
    emit_projection,
    emit_table,
    grid_search,
    run_experiment,
    write_report,
)

__version__ = "0.1.0"
