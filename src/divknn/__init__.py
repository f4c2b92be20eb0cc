"""Sample-based divergence estimation and machine learning on distributions.

Estimate Renyi-alpha and L2 divergences between groups of i.i.d.
sample points from exact k-nearest-neighbor statistics, then embed,
cluster, classify, and anomaly-score the groups straight from the
divergence matrix.
"""

from .baselines import GaussianFit, fit_gaussian, gaussian_l2, gaussian_renyi
from .dataset import (
    Dataset,
    DivergenceMatrix,
    Group,
    load_dataset,
    load_labels,
    load_matrix,
    save_dataset,
    save_matrix,
)
from .errors import (
    ConfigError,
    ContractError,
    DataFormatError,
    DegenerateDistanceError,
    DivknnError,
    FlatAffinityError,
    InsufficientSampleError,
    IntegrationError,
    NonFiniteEstimateError,
    UndefinedAUCError,
)
from .estimators import (
    EstimatorConfig,
    alpha_integral,
    correction_factor,
    cross_divergence_matrix,
    divergence_matrix,
    l2_divergence,
    l2_squared,
    renyi_divergence,
    symmetrize,
)
from .tasks import (
    AnomalyScores,
    ClusterAssignment,
    Embedding,
    anomaly_scores,
    auc,
    cluster_trace_accuracy,
    cross_validate_classify,
    knn_classify,
    mds_embed,
    spectral_cluster,
)

__version__ = "0.1.0"

__all__ = [
    "AnomalyScores",
    "ClusterAssignment",
    "ConfigError",
    "ContractError",
    "DataFormatError",
    "Dataset",
    "DegenerateDistanceError",
    "DivergenceMatrix",
    "DivknnError",
    "Embedding",
    "EstimatorConfig",
    "FlatAffinityError",
    "GaussianFit",
    "Group",
    "InsufficientSampleError",
    "IntegrationError",
    "NonFiniteEstimateError",
    "UndefinedAUCError",
    "alpha_integral",
    "anomaly_scores",
    "auc",
    "cluster_trace_accuracy",
    "correction_factor",
    "cross_divergence_matrix",
    "cross_validate_classify",
    "divergence_matrix",
    "fit_gaussian",
    "gaussian_l2",
    "gaussian_renyi",
    "knn_classify",
    "l2_divergence",
    "l2_squared",
    "load_dataset",
    "load_labels",
    "load_matrix",
    "mds_embed",
    "renyi_divergence",
    "save_dataset",
    "save_matrix",
    "spectral_cluster",
    "symmetrize",
]
