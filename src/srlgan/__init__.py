"""Sparse-regularized conditional GAN for user cold-start recommendation."""

from .data import (
    build_purchase_matrix,
    parse_ratings,
    sparsity_percent,
    split_rows,
)
from .evaluate import (
    MetricReport,
    evaluate_report,
    item_popularity,
    rank_items,
)
from .features import (
    AttributeSchema,
    inverse_document_frequency,
)
from .model import (
    build_discriminator,
    build_generator,
    loss_bce,
    loss_lsq,
    loss_reconstruction,
    mean_purchase,
    sparsity_regularizer,
    total_generator_objective,
)
from .train import TrainConfig, Trainer, cross_validate_beta, fit

__version__ = "0.1.0"

__all__ = [
    "AttributeSchema",
    "MetricReport",
    "TrainConfig",
    "Trainer",
    "build_discriminator",
    "build_generator",
    "build_purchase_matrix",
    "cross_validate_beta",
    "evaluate_report",
    "fit",
    "inverse_document_frequency",
    "item_popularity",
    "loss_bce",
    "loss_lsq",
    "loss_reconstruction",
    "mean_purchase",
    "parse_ratings",
    "rank_items",
    "sparsity_percent",
    "sparsity_regularizer",
    "split_rows",
    "total_generator_objective",
]
