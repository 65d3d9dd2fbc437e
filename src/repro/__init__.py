"""repro — Similarity Join Size Estimation using Locality Sensitive Hashing.

A from-scratch reproduction of Lee, Ng & Shim (PVLDB 4(6), 2011).  The
library estimates the size of a vector similarity self-join or general
join — ``|{(u, v): cos(u, v) ≥ τ}|`` — using an LSH index extended with
bucket counts, without executing the join.

Quickstart
----------
>>> from repro import make_dblp_like, LSHIndex, LSHSSEstimator, exact_join_size
>>> corpus = make_dblp_like(num_vectors=1000, random_state=0)
>>> index = LSHIndex(corpus.collection, num_hashes=20, random_state=0)
>>> estimator = LSHSSEstimator(index.primary_table)
>>> estimate = estimator.estimate(0.8, random_state=0)
>>> true_size = exact_join_size(corpus.collection, 0.8)

Every deployment shape (static, streaming, sharded, rebalanced) is also
reachable through one front door — see :mod:`repro.engine`:

>>> from repro import JoinEstimationEngine, EngineConfig
>>> engine = JoinEstimationEngine(EngineConfig(backend="static", num_hashes=20, seed=0)).open()
>>> _ = engine.ingest(corpus.collection)
>>> result = engine.estimate(0.8)
>>> engine.close()

See ``README.md`` for the architecture overview ("Module map" for the
system inventory, "Engine" for the front-door API, "Tests and
benchmarks" for the per-figure reproduction experiments).
"""

from repro.errors import (
    EstimationError,
    IndexNotBuiltError,
    InsufficientSampleError,
    ReproError,
    ValidationError,
)
from repro.rng import ensure_rng
from repro.vectors import (
    TfidfVectorizer,
    Tokenizer,
    VectorCollection,
    Vocabulary,
    cosine_pairs,
    cosine_similarity,
    cosine_similarity_matrix,
)
from repro.lsh import LSHIndex, LSHTable, SignRandomProjectionFamily
from repro.join import (
    SimilarityHistogram,
    all_pairs_join,
    exact_general_join_size,
    exact_join_size,
    exact_join_sizes,
)
from repro.datasets import (
    SyntheticCorpus,
    SyntheticCorpusConfig,
    generate_corpus,
    make_dblp_like,
    make_nyt_like,
    make_pubmed_like,
)
from repro.core import (
    CrossSampling,
    Estimate,
    GeneralLSHSSEstimator,
    GeneralRandomPairSampling,
    LSHSEstimator,
    LSHSSEstimator,
    LatticeCountingEstimator,
    MedianEstimator,
    PairedLSHTable,
    RandomPairSampling,
    SimilarityJoinSizeEstimator,
    UniformityEstimator,
    VirtualBucketEstimator,
    optimal_num_hashes,
)
from repro.evaluation import (
    ExperimentRunner,
    SweepRecord,
    alpha_beta_table,
    empirical_stratum_probabilities,
    summarize_trials,
)
from repro.shard import (
    KeyPartitioner,
    RebalancePlan,
    ShardedMutableIndex,
    ShardedStreamingEstimator,
    ShardRouter,
    rebalance_cluster,
)
from repro.streaming import (
    ChangeLog,
    Checkpoint,
    Delete,
    Insert,
    MutableLSHIndex,
    StreamingEstimator,
)
from repro.engine import (
    EngineConfig,
    EstimateRequest,
    EstimateResult,
    EstimatorBackend,
    JoinEstimationEngine,
    Provenance,
)
from repro.cluster import ClusterCoordinator, ProcessBackend
from repro.serve import (
    EstimationServer,
    GenerationManager,
    ServeClient,
    connect_with_retry,
)
from repro.errors import ServeError, ServerBusyError, StrandedWritesError
from repro.obs import (
    MetricsRegistry,
    MetricsSnapshot,
    Span,
    Tracer,
    enable_json_logging,
    format_metric_name,
    get_global_registry,
    get_tracer,
    histogram_quantile,
    obs_enabled,
    set_enabled,
    trace,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors / rng
    "ReproError",
    "ValidationError",
    "EstimationError",
    "InsufficientSampleError",
    "IndexNotBuiltError",
    "ensure_rng",
    # vectors
    "VectorCollection",
    "cosine_similarity",
    "cosine_similarity_matrix",
    "cosine_pairs",
    "Tokenizer",
    "Vocabulary",
    "TfidfVectorizer",
    # lsh
    "SignRandomProjectionFamily",
    "LSHTable",
    "LSHIndex",
    # join
    "exact_join_size",
    "exact_join_sizes",
    "exact_general_join_size",
    "SimilarityHistogram",
    "all_pairs_join",
    # datasets
    "SyntheticCorpus",
    "SyntheticCorpusConfig",
    "generate_corpus",
    "make_dblp_like",
    "make_nyt_like",
    "make_pubmed_like",
    # estimators
    "Estimate",
    "SimilarityJoinSizeEstimator",
    "RandomPairSampling",
    "CrossSampling",
    "UniformityEstimator",
    "LSHSEstimator",
    "LSHSSEstimator",
    "LatticeCountingEstimator",
    "MedianEstimator",
    "VirtualBucketEstimator",
    "PairedLSHTable",
    "GeneralLSHSSEstimator",
    "GeneralRandomPairSampling",
    "optimal_num_hashes",
    # evaluation
    "ExperimentRunner",
    "SweepRecord",
    "empirical_stratum_probabilities",
    "alpha_beta_table",
    "summarize_trials",
    # streaming
    "MutableLSHIndex",
    "StreamingEstimator",
    "ChangeLog",
    "Insert",
    "Delete",
    "Checkpoint",
    # sharding
    "KeyPartitioner",
    "ShardedMutableIndex",
    "ShardRouter",
    "ShardedStreamingEstimator",
    # rebalancing
    "RebalancePlan",
    "rebalance_cluster",
    # engine
    "JoinEstimationEngine",
    "EngineConfig",
    "EstimateRequest",
    "EstimateResult",
    "Provenance",
    "EstimatorBackend",
    # multi-process cluster
    "ClusterCoordinator",
    "ProcessBackend",
    # serving
    "EstimationServer",
    "GenerationManager",
    "ServeClient",
    "connect_with_retry",
    "ServeError",
    "ServerBusyError",
    "StrandedWritesError",
    # observability
    "MetricsRegistry",
    "MetricsSnapshot",
    "Span",
    "Tracer",
    "enable_json_logging",
    "format_metric_name",
    "get_global_registry",
    "get_tracer",
    "histogram_quantile",
    "obs_enabled",
    "set_enabled",
    "trace",
]
