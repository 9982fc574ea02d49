"""Named parameters and an Adam optimizer with bias correction."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor

__all__ = ["Parameter", "Adam", "BETA1", "BETA2", "EPSILON", "BLOCK"]

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


# elements per block of Adam's update: the two scratch arrays take 128 KiB each
BLOCK = 16_384


class Adam:
    """Adam update rule; holds one (m, v) moment pair per parameter.

    update: m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2
            theta <- theta - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

    The moments and the update are computed in place, ``BLOCK`` elements at
    a time in two scratch arrays, in the order written above, so the
    result is bitwise that of the out-of-place formula. They belong to
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
        self._scratch = (np.empty(BLOCK), np.empty(BLOCK))

    def step(self, params: list[Parameter]) -> None:
        if self._params is None:
            self._params = list(params)
            self._moments = [(np.zeros_like(p.tensor.values), np.zeros_like(p.tensor.values))
                             for p in params]
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
            if not p.tensor.values.flags["C_CONTIGUOUS"]:  # updated through a flat view
                raise ValueError(f"parameter {p.name!r}: values are not C-contiguous")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for p, (m, v) in zip(params, self._moments):
            if not p.trainable:
                continue
            flat = (p.tensor.values.reshape(-1), p.tensor.grad.reshape(-1),
                    m.reshape(-1), v.reshape(-1))
            for lo in range(0, m.size, BLOCK):
                theta, g, mb, vb = (x[lo : lo + BLOCK] for x in flat)
                a, b = (x[:g.size] for x in self._scratch)
                mb *= BETA1
                np.multiply(g, 1.0 - BETA1, out=a)
                mb += a
                vb *= BETA2
                np.multiply(g, g, out=a)
                a *= 1.0 - BETA2
                vb += a
                np.divide(mb, bc1, out=a)
                a *= self.learning_rate
                np.divide(vb, bc2, out=b)
                np.sqrt(b, out=b)
                b += EPSILON
                a /= b
                theta -= a
            p.tensor.grad = None
