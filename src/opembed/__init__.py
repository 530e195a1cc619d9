"""Dense operator embeddings for query-plan workloads.

The pipeline: parse or synthesize plan trees, featurize each operator into a
sparse standardized vector, train an hourglass network to predict each
operator's children, cut off the prediction heads, and use the bottleneck
embedding as the feature space for downstream task classifiers.
"""

from .errors import (
    BundleError,
    CoverageError,
    OpembedError,
    PlanFormatError,
    SchemaError,
    TrainingDivergedError,
)
from .featurize import (
    FeatureSchema,
    build_schema,
    encode,
    encode_corpus,
    schema_from_json,
    schema_hash,
    schema_to_json,
)
from .hourglass import (
    DEFAULT_HIDDEN,
    EmbeddingNetwork,
    Encoder,
    HourglassSpec,
    build,
    cut_off,
    embed_corpus,
    predict_children,
    train_embedding,
)
from .plans import (
    Corpus,
    PlanNode,
    QueryRecord,
    WalkItem,
    iter_nodes,
    load_corpus,
    save_corpus,
    subcorpus,
    walk_operators,
)
from .synth import (
    SynthConfig,
    context_probe_config,
    generate,
    ground_truth,
    planted_card_config,
    tpcds_like_config,
)
from .tasks import (
    ADMISSION_CLASSES,
    CARD_CLASSES,
    TaskSpec,
    flag_query,
    label_admission,
    label_card,
    label_user,
    make_folds,
)

__version__ = "0.1.0"

__all__ = [
    "ADMISSION_CLASSES",
    "BundleError",
    "CARD_CLASSES",
    "Corpus",
    "CoverageError",
    "DEFAULT_HIDDEN",
    "EmbeddingNetwork",
    "Encoder",
    "FeatureSchema",
    "HourglassSpec",
    "OpembedError",
    "PlanFormatError",
    "PlanNode",
    "QueryRecord",
    "SchemaError",
    "SynthConfig",
    "TaskSpec",
    "TrainingDivergedError",
    "WalkItem",
    "build",
    "build_schema",
    "context_probe_config",
    "cut_off",
    "embed_corpus",
    "encode",
    "encode_corpus",
    "flag_query",
    "generate",
    "ground_truth",
    "iter_nodes",
    "label_admission",
    "label_card",
    "label_user",
    "load_corpus",
    "make_folds",
    "planted_card_config",
    "predict_children",
    "save_corpus",
    "schema_from_json",
    "schema_hash",
    "schema_to_json",
    "subcorpus",
    "tpcds_like_config",
    "train_embedding",
    "walk_operators",
    "__version__",
]
