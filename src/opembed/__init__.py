"""Dense operator embeddings for query-plan workloads.

The pipeline: parse or synthesize plan trees, featurize each operator into a
sparse standardized vector, train an hourglass network to predict each
operator's children, cut off the prediction heads, and use the bottleneck
embedding as the feature space for downstream task classifiers.

The package root exports only the error types; every other name is imported
from its submodule (``opembed.plans``, ``opembed.featurize``, ...).
"""

from .errors import (
    BundleError,
    CoverageError,
    OpembedError,
    PlanFormatError,
    SchemaError,
    TrainingDivergedError,
)
