"""Gradient verification suite over every neural architecture.

Builds small random instances of each architecture (input dim 8, hidden 6,
sequence length 5), with the L1 activity penalty switched on and dropout
off, and checks analytic gradients against central finite differences.
"""

import numpy as np

from .models import (
    ArchitectureDescriptor,
    NeuralSequenceModel,
    RelationLabelSpace,
)
from .neural.gradcheck import GradCheckReport, grad_check
from .seeding import rng_for

__all__ = ["build_check_model", "run_gradcheck_suite", "suite_architectures"]

_CHECK_DIM = 8
_CHECK_HIDDEN = 6
_CHECK_T = 5
_CHECK_VOCAB = 12
# healthy init/input magnitudes keep gradient elements well above the
# finite-difference noise floor
_CHECK_SCALE = 0.5


def suite_architectures() -> list[ArchitectureDescriptor]:
    h = _CHECK_HIDDEN
    return [
        ArchitectureDescriptor("ENTITY", "BILSTM2", (h, h), (0.0, 0.0)),
        ArchitectureDescriptor("ENTITY", "NT_BILSTM1", (h,), (0.0,)),
        ArchitectureDescriptor("RELATION", "BIGRU2", (h, h), (0.0, 0.0)),
        ArchitectureDescriptor(
            "RELATION", "CONV_GRU", (h,), (0.0, 0.0), conv_filters=5, conv_width=2
        ),
    ]


def build_check_model(desc: ArchitectureDescriptor, seed: int) -> tuple[NeuralSequenceModel, tuple]:
    """A small random model of the given architecture plus one random batch
    (two sequences, one shorter, so pad masking is exercised)."""
    rng = rng_for(seed, f"gradsuite.{desc.kind}")
    matrix = rng.uniform(-_CHECK_SCALE, _CHECK_SCALE, size=(_CHECK_VOCAB, _CHECK_DIM))
    matrix[0] = 0.0
    vocab = {f"w{i}": i + 2 for i in range(_CHECK_VOCAB - 2)}
    labels = RelationLabelSpace(("r0", "r1", "r2")) if desc.task == "RELATION" else None
    model = NeuralSequenceModel.fresh(desc, vocab, matrix, labels, max_len=_CHECK_T, seed=seed,
                                      init_scale=_CHECK_SCALE)
    if model.conv is not None:
        # keep conv units alive: finite differences are meaningless across
        # ReLU kinks, and dead channels produce exactly-zero gradient rows
        model.conv.params["b"] += 0.5
    model.l1_activity = 0.01

    ids = rng.integers(1, _CHECK_VOCAB, size=(2, _CHECK_T))
    mask = np.ones((2, _CHECK_T))
    mask[1, 3:] = 0.0
    ids[1, 3:] = 0
    if desc.task == "ENTITY":
        targets = rng.integers(0, 2, size=(2, _CHECK_T))
        targets[1, 3:] = 0
    else:
        targets = rng.integers(0, len(labels.labels), size=2)
    return model, (ids, mask, targets)


def run_gradcheck_suite(
    seed: int = 0, h: float = 1e-5, tolerance: float = 1e-4
) -> list[tuple[str, GradCheckReport]]:
    reports = []
    for desc in suite_architectures():
        model, batch = build_check_model(desc, seed)
        reports.append((desc.kind, grad_check(model, batch, h, tolerance)))
    return reports
