"""Parameter update rules: plain SGD and the two Adam weight-decay variants.

A step updates one float64 vector in place from a gradient vector of the
same shape: in training, a model's trainable suffix of theta and its grad.

ADAM_COUPLED folds weight decay into the gradient before the moment
estimates (the historically common mis-implementation of decay); with
decay 0 it is exactly standard Adam.  ADAM_DECOUPLED applies decay
directly to the parameters after the Adam step.
"""

import numpy as np

__all__ = ["OPTIMIZER_KINDS", "Adam", "Optimizer", "SGD", "make_optimizer"]

OPTIMIZER_KINDS = ("SGD", "ADAM_COUPLED", "ADAM_DECOUPLED")
# Adam's moment decay rates and denominator guard (the published defaults)
_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8


class Optimizer:
    kind: str

    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate
        self.step_count = 0

    def step(self, theta: np.ndarray, grad: np.ndarray) -> None:
        """Update theta in place from grad, a vector of the same shape."""
        raise NotImplementedError


class SGD(Optimizer):
    kind = "SGD"

    def step(self, theta, grad):
        self.step_count += 1
        theta -= self.learning_rate * grad


class Adam(Optimizer):
    def __init__(self, learning_rate: float, weight_decay: float = 0.0, decoupled: bool = False):
        super().__init__(learning_rate)
        if weight_decay < 0:
            raise ValueError(f"weight decay must be non-negative, got {weight_decay}")
        self.weight_decay = weight_decay
        self.decoupled = decoupled
        self.kind = "ADAM_DECOUPLED" if decoupled else "ADAM_COUPLED"
        self._m = self._v = None  # the moment vectors, made on the first step

    def step(self, theta, grad):
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - _BETA1**t
        bias2 = 1.0 - _BETA2**t
        if self.weight_decay and not self.decoupled:
            grad = grad + self.weight_decay * theta
        if self._m is None:
            self._m = np.zeros_like(theta)
            self._v = np.zeros_like(theta)
        m, v = self._m, self._v
        m *= _BETA1
        m += (1.0 - _BETA1) * grad
        v *= _BETA2
        v += (1.0 - _BETA2) * grad * grad
        update = (m / bias1) / (np.sqrt(v / bias2) + _EPSILON)
        if self.weight_decay and self.decoupled:
            update = update + self.weight_decay * theta
        theta -= self.learning_rate * update


def make_optimizer(kind: str, learning_rate: float, **kwargs) -> Optimizer:
    kind = kind.upper()
    if kind == "SGD":
        return SGD(learning_rate)
    if kind == "ADAM_COUPLED":
        return Adam(learning_rate, decoupled=False, **kwargs)
    if kind == "ADAM_DECOUPLED":
        return Adam(learning_rate, decoupled=True, **kwargs)
    raise ValueError(f"unknown optimizer kind {kind!r}; expected one of {OPTIMIZER_KINDS}")
