"""Named parameters and an Adam optimizer with bias correction."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor

__all__ = ["Parameter", "Adam", "BETA1", "BETA2", "EPSILON"]

# the defaults of Kingma & Ba (2015), and the only values the program uses
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class Parameter:
    """A named, optionally trainable tensor."""

    name: str
    tensor: Tensor
    trainable: bool = True


class Adam:
    """Adam update rule; holds one (m, v) moment pair per parameter.

    update: m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2
            theta <- theta - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

    The moments and the update are computed in place, in two scratch
    arrays sized to the largest parameter, in the order written above, so
    the result is bitwise that of the out-of-place formula. They belong to
    the parameters by position: every step must pass the parameter list
    of the first step. Gradients of trainable parameters are cleared
    after each step. The step counter increments once per ``step()`` call.
    """

    def __init__(self, learning_rate: float = 1e-3):
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        self._params: list[Parameter] | None = None
        self._moments: list[tuple[np.ndarray, np.ndarray]] = []
        self._scratch: tuple[np.ndarray, np.ndarray] = (np.empty(0), np.empty(0))

    def step(self, params: list[Parameter]) -> None:
        if self._params is None:
            self._params = list(params)
            self._moments = [(np.zeros_like(p.tensor.values), np.zeros_like(p.tensor.values))
                             for p in params]
            largest = max((p.tensor.values.size for p in params), default=0)
            self._scratch = (np.empty(largest), np.empty(largest))
        elif len(params) != len(self._params) or any(
                p is not q or p.tensor.values.shape != m.shape
                for p, q, (m, _) in zip(params, self._params, self._moments)):
            raise ValueError("Adam.step: the parameter list or a parameter's shape "
                             "changed since the first step")
        for p in params:
            if not p.trainable:
                continue
            if p.tensor.grad is None:
                raise ValueError(f"parameter {p.name!r} has no gradient")
            if p.tensor.grad.shape != p.tensor.values.shape:
                raise ValueError(
                    f"parameter {p.name!r}: gradient shape "
                    f"{p.tensor.grad.shape} != value shape {p.tensor.values.shape}"
                )
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for p, (m, v) in zip(params, self._moments):
            if not p.trainable:
                continue
            g = p.tensor.grad
            a = self._scratch[0][:g.size].reshape(g.shape)
            b = self._scratch[1][:g.size].reshape(g.shape)
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=a)
            m += a
            v *= BETA2
            np.multiply(g, g, out=a)
            a *= 1.0 - BETA2
            v += a
            np.divide(m, bc1, out=a)
            a *= self.learning_rate
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += EPSILON
            a /= b
            p.tensor.values -= a
            p.tensor.grad = None
