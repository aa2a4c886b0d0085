"""Transition pooling across node agents: shared replay + federated averaging.

Per-node DeepPower agents each learn from their own experience; a fleet
of N nodes under one dispatcher sees N nearly-i.i.d. draws from the same
workload, so pooling transitions multiplies the effective sample rate by
N without changing any single agent's control loop.  :class:`SharedReplay`
implements that as a drop-in: ``bind(agent, node_id)`` swaps the agent's
private :class:`~repro.rl.replay.ReplayBuffer` for a view onto one shared
pool.  Pushes land in the shared pool (tagged per node for accounting),
and sampling uses the pool's *own* seed-namespaced RNG
(``derive_seed(seed, "hier", "shared-replay")``) rather than the caller's
— so which node happens to trigger an update never perturbs any other
node's exploration stream, and pooled learning stays bit-reproducible.

:func:`federated_average` is the companion parameter step: periodically
set every node agent's networks to the across-fleet mean (FedAvg with
uniform weights — each node contributes equal transition volume under a
balanced dispatcher).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..rl.replay import ReplayBuffer

__all__ = ["SharedReplay", "federated_average"]

#: Module attributes averaged by :func:`federated_average`, when present.
_FED_MODULES = ("actor", "actor_target", "critic", "critic_target", "policy")


class _NodeView:
    """One node agent's handle onto the shared pool.

    Quacks like the :class:`~repro.rl.replay.ReplayBuffer` the agent was
    constructed with: ``push``/``sample``/``len``/``total_pushed`` and the
    ``state_dict`` round trip all work, but resolve against the shared
    buffer.  ``sample`` deliberately ignores the caller's RNG in favour of
    the pool's namespaced stream (see module docstring).
    """

    def __init__(self, shared: "SharedReplay", node_id: int) -> None:
        self._shared = shared
        self.node_id = int(node_id)

    def push(self, state, action, reward, next_state, done=False) -> None:
        self._shared.buffer.push(state, action, reward, next_state, done)
        self._shared.pushed_by[self.node_id] += 1

    def push_transition(self, tr) -> None:
        self.push(tr.state, tr.action, tr.reward, tr.next_state, tr.done)

    def sample(self, batch_size: int, rng: np.random.Generator):
        del rng  # the pool's stream keeps pooled sampling node-independent
        return self._shared.buffer.sample(batch_size, self._shared.rng)

    def __len__(self) -> int:
        return len(self._shared.buffer)

    def __getattr__(self, name: str):
        # capacity / total_pushed / full / clear / state_dict / ... —
        # everything else resolves against the shared buffer.
        return getattr(self._shared.buffer, name)


class SharedReplay:
    """One replay pool shared by every node agent in the fleet.

    Parameters
    ----------
    capacity, state_dim, action_dim:
        Pool geometry; must match the node agents' transition shapes
        (``bind`` checks).
    seed:
        Already hier-namespaced sampling seed
        (``derive_seed(fleet_seed, "hier", "shared-replay")``).
    """

    def __init__(
        self, capacity: int, state_dim: int, action_dim: int, seed: int
    ) -> None:
        self.buffer = ReplayBuffer(capacity, state_dim, action_dim)
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.pushed_by: Dict[int, int] = {}
        self.bound_agents: List[object] = []

    def bind(self, agent, node_id: int) -> None:
        """Swap ``agent``'s private replay for a view onto this pool."""
        private = getattr(agent, "replay", None)
        if private is not None and (
            private.state_dim != self.buffer.state_dim
            or private.action_dim != self.buffer.action_dim
        ):
            raise ValueError(
                f"agent transition shape ({private.state_dim}, "
                f"{private.action_dim}) does not match the shared pool "
                f"({self.buffer.state_dim}, {self.buffer.action_dim})"
            )
        self.pushed_by.setdefault(int(node_id), 0)
        self.bound_agents.append(agent)
        agent.replay = _NodeView(self, node_id)

    # ------------------------------------------------------------- persistence

    def state_dict(self) -> Dict:
        from ..sim.rng import generator_state

        return {
            "buffer": self.buffer.state_dict(),
            "rng": generator_state(self.rng),
            "pushed_by": dict(self.pushed_by),
        }

    def load_state_dict(self, state: Dict) -> None:
        from ..sim.rng import restore_generator

        self.buffer.load_state_dict(state["buffer"])
        restore_generator(self.rng, state["rng"])
        self.pushed_by = {int(k): int(v) for k, v in state["pushed_by"].items()}


def federated_average(agents: Sequence) -> int:
    """Set every agent's networks to the across-fleet parameter mean.

    Uniform-weight FedAvg over whichever of ``actor`` / ``actor_target`` /
    ``critic`` / ``critic_target`` / ``policy`` modules the agents carry
    (all agents must carry the same set).  Returns the number of modules
    averaged.  A single agent (or none) is a no-op.
    """
    agents = list(agents)
    if len(agents) < 2:
        return 0
    names = [n for n in _FED_MODULES if getattr(agents[0], n, None) is not None]
    averaged = 0
    for name in names:
        modules = [getattr(agent, name, None) for agent in agents]
        if any(module is None for module in modules):
            raise ValueError(f"cannot federate: some agents lack module {name!r}")
        mean = np.mean(np.stack([module.flat_data for module in modules]), axis=0)
        for module in modules:
            module.set_flat(mean)
        averaged += 1
    return averaged
