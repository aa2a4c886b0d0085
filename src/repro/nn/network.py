"""Network containers: sequential MLPs and parameter-vector utilities.

Besides the generic :class:`MLP`, this module provides the two-branch
actor topology the paper describes in §4.6 ("the input state passes the
first shared fully-connected layer and then gets through two separate
fully-connected layers", sigmoid outputs) as :class:`TwoHeadMLP`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Type

import numpy as np

from .layers import Identity, Layer, Linear, Parameter, ReLU, Sigmoid, Tanh

__all__ = ["MLP", "TwoHeadMLP", "Module", "ACTIVATIONS"]

ACTIVATIONS: Dict[str, Type[Layer]] = {
    "relu": ReLU,
    "sigmoid": Sigmoid,
    "tanh": Tanh,
    "identity": Identity,
}


class _BuildsArena(type):
    """Metaclass: every :class:`Module` gets its arena once ``__init__`` ends."""

    def __call__(cls, *args, **kwargs):
        module = super().__call__(*args, **kwargs)
        module._build_arena()
        return module


class Module(metaclass=_BuildsArena):
    """Base container: parameter bookkeeping shared by all networks.

    Construction packs every parameter into one contiguous ``float64``
    arena (:attr:`flat_data`) and every gradient into a second one
    (:attr:`flat_grad`); each ``Parameter.data`` / ``.grad`` is then a
    reshaped view into them.  A submodule held as an attribute (a two-head
    actor's trunk and heads, a twin critic's ``q1``/``q2``) is re-pointed
    at its slice of the parent's arenas, so ``parent.q1.zero_grad()``
    clears exactly ``q1``'s part.  Optimizers, Polyak averaging and
    zero-grad are then a few whole-vector numpy ops per network.

    Invariant: never rebind ``Parameter.data`` or ``.grad``; write into
    them in place (``p.data[...] = x``, ``p.grad += g``).
    """

    #: All parameters, concatenated in ``parameters()`` order.
    flat_data: np.ndarray
    #: All gradients, laid out like :attr:`flat_data`.
    flat_grad: np.ndarray
    #: ``(start, stop)`` of each parameter tensor within the arenas.
    tensor_bounds: Tuple[Tuple[int, int], ...]

    def parameters(self) -> List[Parameter]:
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # ------------------------------------------------------------------ arena

    def _build_arena(self) -> None:
        """Copy every parameter and gradient into fresh arenas and rebind
        the parameters (and submodules) to views of them."""
        params = self.parameters()
        n = sum(p.size for p in params)
        data, grad = np.empty(n), np.empty(n)
        offsets: Dict[int, int] = {}
        bounds: List[Tuple[int, int]] = []
        off = 0
        for p in params:
            k, shape = p.size, p.data.shape
            data[off : off + k] = p.data.ravel()
            grad[off : off + k] = p.grad.ravel()
            p.data = data[off : off + k].reshape(shape)
            p.grad = grad[off : off + k].reshape(shape)
            offsets[id(p)] = off
            bounds.append((off, off + k))
            off += k
        self.flat_data, self.flat_grad = data, grad
        self.tensor_bounds = tuple(bounds)
        self._rebase_children(data, grad, offsets)

    def _rebase_children(
        self, data: np.ndarray, grad: np.ndarray, offsets: Dict[int, int]
    ) -> None:
        """Point every submodule at its slice of the root's arenas."""
        for child in vars(self).values():
            if not isinstance(child, Module):
                continue
            ps = child.parameters()
            start = offsets.get(id(ps[0]), -1) if ps else 0
            off = start
            for p in ps:
                if offsets.get(id(p)) != off:
                    raise ValueError(
                        f"submodule {type(child).__name__} parameters are not a "
                        f"contiguous run of {type(self).__name__}.parameters()"
                    )
                off += p.size
            child.flat_data, child.flat_grad = data[start:off], grad[start:off]
            child._rebase_children(data, grad, offsets)

    def __setstate__(self, state: Dict) -> None:
        # Pickle and deepcopy hand back parameters as standalone arrays (a
        # view loses its base); re-pack them so they share an arena again.
        self.__dict__.update(state)
        self._build_arena()

    def __copy__(self):
        # A shallow copy would share the Parameter objects, and re-packing
        # them would detach the original's arena from its parameters.
        raise TypeError(
            f"{type(self).__name__} cannot be shallow-copied; use copy.deepcopy"
        )

    # ------------------------------------------------------------- parameters

    def zero_grad(self) -> None:
        self.flat_grad.fill(0.0)

    def num_parameters(self) -> int:
        """Total trainable scalar count (the paper reports 2096 for its actor)."""
        return self.flat_data.size

    def get_flat(self) -> np.ndarray:
        """All parameters concatenated into one vector (a copy of the arena)."""
        return self.flat_data.copy()

    def set_flat(self, vec: np.ndarray) -> None:
        """Load parameters from a flat vector produced by :meth:`get_flat`."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.size != self.flat_data.size:
            raise ValueError(
                f"flat vector has {vec.size} values, this network {self.flat_data.size}"
            )
        self.flat_data[...] = vec.ravel()

    def copy_from(self, other: "Module") -> None:
        """Hard copy of another network's parameters (target-net init)."""
        self.set_flat(other.flat_data)

    def soft_update_from(self, other: "Module", tau: float) -> None:
        """Polyak averaging: ``theta <- tau * theta_src + (1-tau) * theta``.

        The DDPG/SAC target-network update (paper Algorithm 2, line 18).
        """
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        self.flat_data *= 1.0 - tau
        self.flat_data += tau * other.flat_data

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Named per-tensor parameter snapshot (savable with ``np.savez``)."""
        return {f"p{i}": p.data.copy() for i, p in enumerate(self.parameters())}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        for i, p in enumerate(self.parameters()):
            key = f"p{i}"
            if key not in state:
                raise KeyError(f"missing parameter {key}")
            if state[key].shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {key}: {state[key].shape} vs {p.data.shape}"
                )
            p.data[...] = state[key]


class MLP(Module):
    """Fully-connected stack: ``dims[0] -> dims[1] -> ... -> dims[-1]``.

    Parameters
    ----------
    dims:
        Layer widths including input and output.
    rng:
        Initialisation stream.
    hidden_activation, output_activation:
        Names from :data:`ACTIVATIONS`.

    Examples
    --------
    >>> rng = np.random.default_rng(0)
    >>> net = MLP([8, 32, 24, 16, 2], rng, output_activation="sigmoid")
    >>> y = net(np.zeros((5, 8)))
    >>> y.shape
    (5, 2)
    >>> bool(np.all((y >= 0) & (y <= 1)))
    True
    """

    def __init__(
        self,
        dims: Sequence[int],
        rng: np.random.Generator,
        hidden_activation: str = "relu",
        output_activation: str = "identity",
    ) -> None:
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        self.dims = tuple(int(d) for d in dims)
        self.layers: List[Layer] = []
        n = len(dims) - 1
        for i in range(n):
            self.layers.append(Linear(dims[i], dims[i + 1], rng, name=f"fc{i}"))
            act = hidden_activation if i < n - 1 else output_activation
            self.layers.append(ACTIVATIONS[act]())

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = grad_out
        for layer in reversed(self.layers):
            g = layer.backward(g)
        return g

    def parameters(self) -> List[Parameter]:
        out: List[Parameter] = []
        for layer in self.layers:
            out.extend(layer.parameters())
        return out


class TwoHeadMLP(Module):
    """Shared trunk + two output heads, each emitting one scalar.

    This is the paper's actor topology: the 8-dim state passes through a
    shared layer, then two separate branches produce ``BaseFreq`` and
    ``ScalingCoef``; a sigmoid keeps both in [0, 1] (§4.4.3, §4.6).

    ``forward`` returns shape ``(batch, 2)`` — column 0 is head A
    (BaseFreq), column 1 is head B (ScalingCoef).
    """

    def __init__(
        self,
        in_dim: int,
        trunk_dims: Sequence[int],
        head_dims: Sequence[int],
        rng: np.random.Generator,
        output_activation: str = "sigmoid",
        hidden_activation: str = "relu",
    ) -> None:
        self.trunk = MLP(
            [in_dim, *trunk_dims],
            rng,
            hidden_activation=hidden_activation,
            output_activation=hidden_activation,
        )
        trunk_out = trunk_dims[-1]
        self.head_a = MLP(
            [trunk_out, *head_dims, 1],
            rng,
            hidden_activation=hidden_activation,
            output_activation=output_activation,
        )
        self.head_b = MLP(
            [trunk_out, *head_dims, 1],
            rng,
            hidden_activation=hidden_activation,
            output_activation=output_activation,
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.trunk.forward(x)
        a = self.head_a.forward(h)
        b = self.head_b.forward(h)
        return np.concatenate([a, b], axis=1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        ga = self.head_a.backward(grad_out[:, :1])
        gb = self.head_b.backward(grad_out[:, 1:2])
        return self.trunk.backward(ga + gb)

    def parameters(self) -> List[Parameter]:
        return self.trunk.parameters() + self.head_a.parameters() + self.head_b.parameters()


def numerical_gradient(
    module: Module, x: np.ndarray, loss_fn, eps: float = 1e-6
) -> np.ndarray:
    """Finite-difference gradient of ``loss_fn(module(x))`` w.r.t. parameters.

    Test utility backing the gradient-check property tests.
    """
    flat = module.get_flat()
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        module.set_flat(flat)
        hi = loss_fn(module.forward(x))
        flat[i] = orig - eps
        module.set_flat(flat)
        lo = loss_fn(module.forward(x))
        flat[i] = orig
        grad[i] = (hi - lo) / (2 * eps)
    module.set_flat(flat)
    return grad
