"""False-positive filtering for IDS alerts.

The pipeline ingests NDJSON alert logs, weak-labels them from analyst
rule comments, dedups sensor-duplicated alerts, encodes a fixed-order
numeric feature vector per alert, trains a bagged decision forest biased
toward true-positive recall, and explains predictions with exact
per-feature Shapley attributions.
"""

__version__ = "0.1.0"

from .attribution import Attribution, global_importance, tree_shap
from .errors import AlertSiftError, ParseError, ValidationError
from .evaluation import (
    ConfusionMatrix,
    CrossValidation,
    MetricsReport,
    confusion,
    cross_validate,
    evaluate_forest,
    kfold_split,
    metrics,
    workload_savings,
)
from .features import (
    FeatureProfile,
    ScalingCaps,
    chi2_select,
    encode_alert,
    feature_names,
)
from .forest import (
    Forest,
    ForestParams,
    load_forest,
    predict_proba,
    save_forest,
    train_forest,
)
from .ingest import IngestReport, RawAlert, parse_alert_record, read_corpus
from .labeling import KeywordConfig, LabeledAlert, classify_comment, label_corpus
from .sampling import SampleParams, dedup_sample, partition_by_period
from .synth import SynthSpec, generate_corpus

__all__ = [
    "AlertSiftError",
    "ParseError",
    "ValidationError",
    "Attribution",
    "global_importance",
    "tree_shap",
    "ConfusionMatrix",
    "CrossValidation",
    "MetricsReport",
    "confusion",
    "cross_validate",
    "evaluate_forest",
    "kfold_split",
    "metrics",
    "workload_savings",
    "FeatureProfile",
    "ScalingCaps",
    "chi2_select",
    "encode_alert",
    "feature_names",
    "Forest",
    "ForestParams",
    "load_forest",
    "predict_proba",
    "save_forest",
    "train_forest",
    "IngestReport",
    "RawAlert",
    "parse_alert_record",
    "read_corpus",
    "KeywordConfig",
    "LabeledAlert",
    "classify_comment",
    "label_corpus",
    "SampleParams",
    "dedup_sample",
    "partition_by_period",
    "SynthSpec",
    "generate_corpus",
    "__version__",
]
