"""Neural-network layers with explicit forward/backward (numpy only).

PyTorch is not available in this environment, and the paper's networks are
tiny (≈2k parameters), so the substrate is a straightforward reverse-mode
implementation: each layer caches what it needs during ``forward`` and
returns input gradients from ``backward`` while accumulating parameter
gradients.  Batches are row-major ``(batch, features)`` float64 arrays —
at these sizes the avoided dtype conversions beat float32 in numpy.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

__all__ = ["Parameter", "Layer", "Linear", "ReLU", "Sigmoid", "Tanh", "Identity"]


class Parameter:
    """A trainable array and its gradient accumulator.

    Once a :class:`~repro.nn.network.Module` owns it, ``data`` and ``grad``
    are views into the module's arenas: update them in place, never rebind.
    """

    __slots__ = ("data", "grad", "name")

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name or 'unnamed'}, shape={self.data.shape})"


class Layer:
    """Base layer: ``y = forward(x)``, ``dL/dx = backward(dL/dy)``."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> List[Parameter]:
        return []

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Linear(Layer):
    """Affine map ``y = x @ W.T + b``.

    Weight initialisation follows He-uniform scaled for the fan-in, which
    works well for the shallow ReLU stacks used here.

    Parameters
    ----------
    in_features, out_features:
        Layer dimensions.
    rng:
        Generator for reproducible initialisation (required — global numpy
        state is never used by this library).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        name: str = "linear",
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("layer dimensions must be positive")
        bound = np.sqrt(6.0 / in_features)
        w = rng.uniform(-bound, bound, size=(out_features, in_features))
        b = np.zeros(out_features)
        self.weight = Parameter(w, f"{name}.weight")
        self.bias = Parameter(b, f"{name}.bias")
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.weight.data.T + self.bias.data

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward before forward")
        # Accumulate (+=) so multi-head networks can sum head gradients.
        self.weight.grad += grad_out.T @ self._x
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data

    def parameters(self) -> List[Parameter]:
        return [self.weight, self.bias]


class ReLU(Layer):
    """Rectified linear activation (the paper's hidden activation)."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0.0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward before forward")
        return grad_out * self._mask


class Sigmoid(Layer):
    """Logistic activation (the paper's action squashing to [0, 1])."""

    def __init__(self) -> None:
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Numerically stable piecewise form: e = exp(-|x|) never overflows.
        # min(x, -x) equals -|x| but, unlike -abs(x), keeps a NaN's sign.
        e = np.exp(np.minimum(x, -x))
        out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        self._y = out
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward before forward")
        return grad_out * self._y * (1.0 - self._y)


class Tanh(Layer):
    """Hyperbolic tangent (used by the SAC policy head)."""

    def __init__(self) -> None:
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = np.tanh(x)
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward before forward")
        return grad_out * (1.0 - self._y * self._y)


class Identity(Layer):
    """Pass-through (linear output heads)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out
