"""Weak supervision over structured label spaces.

Learns labeler accuracies from their outputs alone (no ground truth) over
rankings, real values, and finite metric spaces, then aggregates the outputs
into pseudolabels with accuracy-weighted maximum-likelihood rules.
"""

__version__ = "0.1.0"

from .inference import (
    aggregate_dataset,
    gaussian_conditional_mean,
    kemeny_exact,
    kemeny_local_search,
)
from .label_model import (
    CorrelationSet,
    LabelingMatrix,
    LabelModel,
    SecondMomentPrior,
    TwoPointPrior,
    learn_label_model,
)
from .mallows import MallowsModel
from .metric_spaces import FiniteMetricSpace, classical_mds, distortion, graph_hop_metric

__all__ = [
    "__version__",
    "aggregate_dataset",
    "gaussian_conditional_mean",
    "kemeny_exact",
    "kemeny_local_search",
    "CorrelationSet",
    "LabelingMatrix",
    "LabelModel",
    "SecondMomentPrior",
    "TwoPointPrior",
    "learn_label_model",
    "MallowsModel",
    "FiniteMetricSpace",
    "classical_mds",
    "distortion",
    "graph_hop_metric",
]
