"""Minimal differentiable stack.  The package re-exports nothing; import
from its submodules: `layers` (the layers, softmax, cross-entropy and the
flat-parameter helpers), `optim` (SGD and Adam), `config` (TrainConfig)
and `gradcheck` (the finite-difference check)."""
