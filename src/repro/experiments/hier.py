"""The ``hier`` fleet grid's fleet-agent configuration.

The grid itself (learned vs. heuristic budget coordinator vs. uncapped)
lives in :mod:`repro.experiments.fleet` with the other fleet grids; this
module keeps the agent configuration those learned cells — and the
benchmark's hier workload — are built with.
"""

from __future__ import annotations

from ..hier import HierConfig

__all__ = ["hier_config"]


def hier_config() -> HierConfig:
    """The experiment's fleet-agent configuration (online-learning DDPG).

    The actor starts at a 0.65 share of each node's controllable envelope
    — one DVFS ceiling below where the budget-riding heuristic lands —
    with moderate exploration noise so the learner can probe lower shares
    during trace valleys without destabilising the tail.
    """
    return HierConfig(
        algo="ddpg",
        control="budget",
        train=True,
        init_share=0.65,
        noise_sigma=0.2,
        noise_decay=0.98,
        noise_min_sigma=0.02,
    )
