"""Per-tensor reference implementations of the arena-based NN updates.

These are the optimizers, gradient clip, Polyak update and zero-grad as
they were written before networks kept their parameters in one flat
arena: a Python loop over ``Parameter`` objects with numpy ops per
tensor.  The oracle tests in ``test_nn_arena.py`` run them side by side
with :mod:`repro.nn.optim` and require bit-equal weights, slots and norms.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.nn import Module, Parameter


class ParamList(Module):
    """A module over loose parameters (for stepping optimizers directly)."""

    def __init__(self, params: Sequence[Parameter]) -> None:
        self.params = list(params)

    def parameters(self) -> List[Parameter]:
        return list(self.params)


def ref_zero_grad(params: Sequence[Parameter]) -> None:
    for p in params:
        p.grad.fill(0.0)


def ref_clip_grad_norm(params: Sequence[Parameter], max_norm: float) -> float:
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if norm > max_norm > 0.0:
        scale = max_norm / (norm + 1e-12)
        for p in params:
            p.grad *= scale
    return norm


def ref_soft_update(
    target: Sequence[Parameter], source: Sequence[Parameter], tau: float
) -> None:
    for p_t, p_s in zip(target, source):
        p_t.data *= 1.0 - tau
        p_t.data += tau * p_s.data


class RefSGD:
    """Per-tensor SGD with optional momentum; ``velocity[i]`` pairs with
    ``params[i]``."""

    def __init__(self, params: Sequence[Parameter], lr: float, momentum: float = 0.0):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.velocity: List = [None] * len(self.params)

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if self.momentum > 0.0:
                v = self.velocity[i]
                if v is None:
                    v = self.velocity[i] = np.zeros_like(p.data)
                v *= self.momentum
                v -= self.lr * p.grad
                p.data += v
            else:
                p.data -= self.lr * p.grad

    def zero_grad(self) -> None:
        ref_zero_grad(self.params)


class RefAdam:
    """Per-tensor Adam; ``m[i]`` / ``v[i]`` pair with ``params[i]``."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        betas: Tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        self.params = list(params)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m: List = [None] * len(self.params)
        self.v: List = [None] * len(self.params)

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.b1**self.t
        b2t = 1.0 - self.b2**self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.m[i] is None:
                self.m[i] = np.zeros_like(p.data)
                self.v[i] = np.zeros_like(p.data)
            m, v = self.m[i], self.v[i]
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * g * g
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)

    def zero_grad(self) -> None:
        ref_zero_grad(self.params)
