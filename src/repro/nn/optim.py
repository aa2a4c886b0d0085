"""First-order optimizers over a :class:`~repro.nn.network.Module`'s arena.

Every network keeps its parameters in one contiguous vector
(``module.flat_data``) and its gradients in another (``module.flat_grad``),
so each optimizer holds one slot array per moment and a step is a few
whole-vector numpy ops.  Elementwise ops give the same doubles over the
concatenation as per tensor, so results match a per-tensor loop bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .network import Module

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm"]


def clip_grad_norm(module: Module, max_norm: float) -> float:
    """Scale ``module``'s gradients in place so their global L2 norm is
    <= ``max_norm``.

    Returns the pre-clip norm (useful for logging training stability).  The
    squared norm is one sum per tensor (``np.add.reduce``, which is what
    ``np.sum`` runs), added in tensor order, so it rounds exactly as a
    per-tensor loop does; one sum over the whole arena would pair the terms
    differently.
    """
    sq = module.flat_grad * module.flat_grad
    total = 0.0
    for start, stop in module.tensor_bounds:
        total += float(np.add.reduce(sq[start:stop]))
    norm = float(np.sqrt(total))
    if norm > max_norm > 0.0:
        module.flat_grad *= max_norm / (norm + 1e-12)
    return norm


class Optimizer:
    """Base: step over one module's parameter arena."""

    def __init__(self, module: Module, lr: float) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.module = module
        self.lr = float(lr)

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        self.module.zero_grad()

    # ------------------------------------------------------------- persistence

    def state_dict(self) -> Dict:
        """Snapshot of the optimizer's slot state (momentum, moments, ...).

        Slots are stored positionally, one array per parameter tensor in
        ``module.parameters()`` order (``None`` before the first step).
        """
        raise NotImplementedError

    def load_state_dict(self, state: Dict) -> None:
        raise NotImplementedError

    def _split(self, slot: Optional[np.ndarray]) -> List[Optional[np.ndarray]]:
        """A slot array as per-tensor copies (the on-disk layout)."""
        params = self.module.parameters()
        if slot is None:
            return [None] * len(params)
        return [
            slot[start:stop].reshape(p.data.shape).copy()
            for p, (start, stop) in zip(params, self.module.tensor_bounds)
        ]

    def _join(self, slots: List) -> Optional[np.ndarray]:
        """Per-tensor slots back into one slot array (missing ones are zero)."""
        bounds = self.module.tensor_bounds
        if len(slots) != len(bounds):
            raise ValueError(
                f"optimizer snapshot has {len(slots)} parameter slots, "
                f"this optimizer has {len(bounds)}"
            )
        if all(s is None for s in slots):
            return None
        out = np.zeros(self.module.flat_data.size)
        for s, (start, stop) in zip(slots, bounds):
            if s is None:
                continue
            s = np.asarray(s, dtype=np.float64)
            if s.size != stop - start:
                raise ValueError(
                    f"optimizer slot has {s.size} values, its tensor {stop - start}"
                )
            out[start:stop] = s.ravel()
        return out


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, module: Module, lr: float = 1e-2, momentum: float = 0.0) -> None:
        super().__init__(module, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._vel: Optional[np.ndarray] = None

    def step(self) -> None:
        data, grad = self.module.flat_data, self.module.flat_grad
        if self.momentum > 0.0:
            if self._vel is None:
                self._vel = np.zeros_like(data)
            v = self._vel
            v *= self.momentum
            v -= self.lr * grad
            data += v
        else:
            data -= self.lr * grad

    def state_dict(self) -> Dict:
        return {
            "lr": self.lr,
            "momentum": self.momentum,
            "velocity": self._split(self._vel),
        }

    def load_state_dict(self, state: Dict) -> None:
        vel = self._join(state["velocity"])
        self.lr = float(state["lr"])
        self.momentum = float(state["momentum"])
        self._vel = vel


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction.

    The paper trains its DDPG networks with default Adam settings; the same
    defaults are used here.
    """

    def __init__(
        self,
        module: Module,
        lr: float = 1e-3,
        betas: Tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(module, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.b1, self.b2 = b1, b2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.b1**self.t
        b2t = 1.0 - self.b2**self.t
        data, g = self.module.flat_data, self.module.flat_grad
        if self.weight_decay:
            g = g + self.weight_decay * data
        if self._m is None:
            self._m, self._v = np.zeros_like(data), np.zeros_like(data)
        m, v = self._m, self._v
        m *= self.b1
        m += (1.0 - self.b1) * g
        v *= self.b2
        v += (1.0 - self.b2) * g * g
        data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)

    def state_dict(self) -> Dict:
        return {
            "lr": self.lr,
            "betas": (self.b1, self.b2),
            "eps": self.eps,
            "weight_decay": self.weight_decay,
            "t": self.t,
            "m": self._split(self._m),
            "v": self._split(self._v),
        }

    def load_state_dict(self, state: Dict) -> None:
        m, v = self._join(state["m"]), self._join(state["v"])
        self.lr = float(state["lr"])
        self.b1, self.b2 = (float(b) for b in state["betas"])
        self.eps = float(state["eps"])
        self.weight_decay = float(state["weight_decay"])
        self.t = int(state["t"])
        self._m, self._v = m, v
