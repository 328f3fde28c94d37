"""Finite-difference verification of analytic gradients.

Works against any object exposing trainable_params() -> dict of live
arrays and loss_and_grads(example) -> (loss, grads); an optional
loss(example) method is used for the cheap re-evaluations.  Central
differences in float64.  The relative error of one parameter tensor is

    max_i |analytic_i - numeric_i| / max(max_i|analytic_i|, max_i|numeric_i|, 1e-8)

i.e. the worst absolute deviation normalized by the tensor's gradient
scale.  Normalizing per element instead would compare finite-difference
rounding noise (~1e-11 here) against near-cancelled gradient entries of
order 1e-8, which fails for any correct implementation.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["GradCheckReport", "grad_check"]

_FLOOR = 1e-8


@dataclass(frozen=True)
class GradCheckReport:
    passed: bool
    tolerance: float
    max_relative_error: float
    worst_param: str
    per_param: dict[str, float]

    def __str__(self):
        lines = [
            f"{'PASS' if self.passed else 'FAIL'}"
            f" max_rel_err={self.max_relative_error:.3e}"
            f" tol={self.tolerance:.1e} worst={self.worst_param}"
        ]
        for name in sorted(self.per_param):
            lines.append(f"  {name:30s} {self.per_param[name]:.3e}")
        return "\n".join(lines)


def grad_check(model, example, h: float = 1e-5, tolerance: float = 1e-4) -> GradCheckReport:
    """Compare model.loss_and_grads against central finite differences."""
    if h <= 0 or tolerance <= 0:
        raise ValueError(f"h and tolerance must be > 0, got h={h}, tolerance={tolerance}")
    params = model.trainable_params()
    _, analytic = model.loss_and_grads(example)
    loss_fn = getattr(model, "loss", None)
    if loss_fn is None:
        loss_fn = lambda ex: model.loss_and_grads(ex)[0]

    per_param: dict[str, float] = {}
    worst = ("", 0.0)
    for name, values in params.items():
        grad = analytic[name]
        flat = values.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            up = loss_fn(example)
            flat[i] = original - h
            down = loss_fn(example)
            flat[i] = original
            numeric[i] = (up - down) / (2.0 * h)
        numeric = numeric.reshape(values.shape)
        scale = max(np.abs(grad).max(), np.abs(numeric).max(), _FLOOR)
        err = float(np.abs(grad - numeric).max() / scale)
        per_param[name] = err
        if err > worst[1]:
            worst = (name, err)
    max_err = worst[1]
    return GradCheckReport(
        passed=max_err < tolerance,
        tolerance=tolerance,
        max_relative_error=max_err,
        worst_param=worst[0],
        per_param=per_param,
    )
