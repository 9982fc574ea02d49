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


# elements per block of Adam's update: the scratch array takes 512 KiB
BLOCK = 65_536


class Adam:
    """Adam update rule over one vector of the trainable parameters' values.

    update: m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2
            theta <- theta - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

    The first step lays the trainable parameters, in list order, into one
    values vector, and makes each ``Parameter.tensor.values`` a view of it;
    a gradient vector and the moment vectors (m, v) lie beside it. Each
    tensor's ``grad_view`` is its view of the gradient vector. ``step``
    copies each gradient into its view, except one that backward already
    wrote there (the first weight gradient of a ``dense`` layer). Frozen
    parameters keep their own arrays. Every step must pass the parameter
    list of the first step, with the same values arrays.

    The moments and the update are computed in place, ``BLOCK`` elements at
    a time in one scratch block and the gradient block, in the order
    written above, so the result is bitwise that of the out-of-place
    formula. Gradients of trainable parameters are cleared after each step,
    and the gradient vector holds scratch values then. The step counter
    increments once per ``step()`` call.
    """

    def __init__(self, learning_rate: float = 1e-3):
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        self._params: list[Parameter] | None = None
        self._views: list[np.ndarray | None] = []  # values views; None where frozen
        self._vectors: tuple[np.ndarray, ...] = ()  # values, grad, m, v
        self._scratch = np.empty(BLOCK)

    def step(self, params: list[Parameter]) -> None:
        if self._params is not None and (len(params) != len(self._params) or any(
                p is not q or p.trainable != (view is not None)
                or view is not None and p.tensor.values is not view
                for p, q, view in zip(params, self._params, self._views))):
            raise ValueError("Adam.step: the parameter list or a parameter's values "
                             "changed since the first step")
        live = [p.tensor for p in params if p.trainable]
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
            if not p.tensor.values.flags["C_CONTIGUOUS"]:
                raise ValueError(f"parameter {p.name!r}: values are not C-contiguous")
        if self._params is None:
            self._lay_out(params, live)
        for tensor in live:  # the one copy-in; each gradient is freed once copied
            if tensor.grad is not tensor.grad_view:
                np.copyto(tensor.grad_view, tensor.grad)
                tensor.grad = tensor.grad_view
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for lo in range(0, self._vectors[0].size, BLOCK):
            theta, g, mb, vb = (x[lo : lo + BLOCK] for x in self._vectors)
            a = self._scratch[:g.size]
            mb *= BETA1
            np.multiply(g, 1.0 - BETA1, out=a)
            mb += a
            vb *= BETA2
            np.multiply(g, g, out=a)
            a *= 1.0 - BETA2
            vb += a
            np.divide(mb, bc1, out=a)
            a *= self.learning_rate
            np.divide(vb, bc2, out=g)  # g is read no more: the second scratch
            np.sqrt(g, out=g)
            g += EPSILON
            a /= g
            theta -= a
        for tensor in live:
            tensor.grad = None

    def _lay_out(self, params: list[Parameter], live: list[Tensor]) -> None:
        """Copy the trainable values into one vector and rebind each to its
        view, so that each old array is freed once copied."""
        total = sum(t.values.size for t in live)
        values, grad = np.empty(total), np.empty(total)
        lo = 0
        for t in live:
            n = t.values.size
            view = values[lo : lo + n].reshape(t.values.shape)
            np.copyto(view, t.values)
            t.values = view
            t.grad_view = grad[lo : lo + n].reshape(view.shape)
            lo += n
        self._params = list(params)
        self._views = [p.tensor.values if p.trainable else None for p in params]
        self._vectors = (values, grad, np.zeros(total), np.zeros(total))
