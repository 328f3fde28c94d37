"""Minimal differentiable stack: layers, losses, optimizers, grad check."""

from .config import TrainConfig
from .gradcheck import GradCheckReport, grad_check
from .layers import (
    BidirectionalLayer,
    Conv1dLayer,
    DenseLayer,
    DropoutLayer,
    EmbeddingLayer,
    RecurrentDirection,
)
from .optim import OPTIMIZER_KINDS, Adam, Optimizer, SGD, make_optimizer

__all__ = [
    "Adam",
    "BidirectionalLayer",
    "Conv1dLayer",
    "DenseLayer",
    "DropoutLayer",
    "EmbeddingLayer",
    "GradCheckReport",
    "OPTIMIZER_KINDS",
    "Optimizer",
    "RecurrentDirection",
    "SGD",
    "TrainConfig",
    "grad_check",
    "make_optimizer",
]
