"""Identity-aware feature normalization and equity-scaled model auditing.

The package trains small double-precision MLP classifiers whose feature
layer can normalize per identity group with learnable statistics, and
audits scored predictions with an equity-scaled metric family that deflates
an overall metric by its per-group discrepancy.
"""

from .core import AttributeSet, Dataset, IdColumn, Predictions
from .errors import (
    CacheError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointShapeError,
    CheckpointVersionError,
    NonFiniteError,
    TrainingDivergedError,
    UndefinedMetricError,
    ValidationError,
)
from .metrics import (
    MetricReport,
    PredictionHistogram,
    accuracy,
    auc,
    decide,
    deodds,
    discrepancy,
    dpd,
    equity_scaled,
    full_report,
    group_counts,
    prediction_histogram,
)
from .net import (
    AffineLayer,
    MlpModel,
    backward,
    cross_entropy,
    forward,
    init_mlp,
    named_parameters,
    softmax,
)
from .norms import (
    BatchNormState,
    FinParams,
    NormKind,
    softplus,
    softplus_grad,
)
from .fileio import (
    dumps_canonical,
    format_float,
    load_json,
    metric_report_to_dict,
    read_dataset_csv,
    read_groups_sidecar,
    read_predictions_csv,
    write_dataset_csv,
    write_histogram_csv,
    write_predictions_csv,
    write_pretty_json,
)
from .optim import AdamWConfig, AdamWState, adamw_step, default_decay_mask
from .synth import (
    GroupSpec,
    SynthConfig,
    bayes_scores,
    default_benchmark,
    generate,
    synth_config_from_dict,
    synth_config_to_dict,
)
from .train import (
    Checkpoint,
    MetricSummary,
    RunHistory,
    SeedAggregate,
    TrainConfig,
    checkpoint_from_dict,
    checkpoint_to_dict,
    evaluate_model,
    load_checkpoint,
    run_seeds,
    save_checkpoint,
    sweep_momentum,
    train,
    train_config_from_dict,
    train_config_to_dict,
)

__version__ = "0.1.0"
