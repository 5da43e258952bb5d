"""From-scratch statistics / ML substrate used by the FLARE pipeline.

Everything here is implemented directly on numpy (no sklearn): feature
standardisation and whitening, PCA by SVD, k-means++ clustering, SSE and
silhouette cluster-quality metrics, correlation-based metric pruning, and
the random-sampling trial machinery used by the baseline comparisons.
"""

from .comparison import GapResult, adjusted_rand_index, gap_statistic
from .correlation import (
    PruneReport,
    correlation_matrix,
    prune_correlated,
    prune_from_correlation,
)
from .distance import nearest_indices, pairwise_euclidean, pairwise_sq_euclidean
from .hierarchy import AgglomerativeClustering, AgglomerativeResult
from .kmeans import (
    KMeans,
    KMeansResult,
    StreamingKMeans,
    assigned_sq_distances,
    kmeans_plus_plus_init,
)
from .pca import PCA, PCAResult, IncrementalPCA, components_for_variance
from .preprocessing import StandardScaler, whiten, whiten_scores
from .streaming import ReservoirSampler, RunningMoments
from .sampling import (
    DistributionSummary,
    SamplingTrialResult,
    expected_max_error,
    percentile_interval,
    run_sampling_trials,
    summarize_distribution,
)
from .silhouette import (
    ClusterQualitySweep,
    knee_point,
    silhouette_samples,
    silhouette_score,
    sum_squared_error,
    sweep_cluster_counts,
)
from .validation import check_random_state

__all__ = [
    "PCA",
    "PCAResult",
    "IncrementalPCA",
    "components_for_variance",
    "StandardScaler",
    "whiten",
    "whiten_scores",
    "AgglomerativeClustering",
    "AgglomerativeResult",
    "KMeans",
    "KMeansResult",
    "StreamingKMeans",
    "assigned_sq_distances",
    "kmeans_plus_plus_init",
    "RunningMoments",
    "ReservoirSampler",
    "ClusterQualitySweep",
    "knee_point",
    "silhouette_samples",
    "silhouette_score",
    "sum_squared_error",
    "sweep_cluster_counts",
    "correlation_matrix",
    "adjusted_rand_index",
    "gap_statistic",
    "GapResult",
    "prune_correlated",
    "prune_from_correlation",
    "PruneReport",
    "pairwise_euclidean",
    "pairwise_sq_euclidean",
    "nearest_indices",
    "DistributionSummary",
    "SamplingTrialResult",
    "summarize_distribution",
    "run_sampling_trials",
    "percentile_interval",
    "expected_max_error",
    "check_random_state",
]
