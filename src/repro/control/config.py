"""Configuration for the runtime's control plane (the bus and its node endpoint)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..faults.bus import BusFaultPlan

__all__ = ["ControlPlaneConfig"]


@dataclass(frozen=True)
class ControlPlaneConfig:
    """Knobs for the message-boundary control loop.

    :class:`~repro.core.runtime.DeepPowerConfig` always carries one: the
    runtime talks to its node only through schema-versioned messages over
    an :class:`~repro.control.bus.InProcessBus`.  The default (empty)
    ``fault_plan`` is a perfect transport; a lossy plan exercises the
    degraded-mode machinery below.

    Degraded-mode control (``degraded_mode=True``):

    * **stale telemetry** — a DRL window with no same-tick reading
      (beyond ``stale_tolerance`` seconds of age slack) is flagged: the
      controller holds its last action, skips learning, and after
      ``deadline_misses`` consecutive stale windows escalates to
      broadcasting ``safe_action`` until telemetry has been healthy for
      ``recovery_windows`` windows.
    * **ack timeout / retry** — an unacknowledged command is resent
      idempotently (same ``seq``) after ``ack_timeout`` seconds, at most
      ``max_retries`` times.
    * **node deadline watchdog** — the node endpoint engages the
      ``fallback`` governor when no valid command has arrived for
      ``deadline_misses`` DRL intervals, and hands the cores back on the
      next applied command.

    ``degraded_mode=False`` is the soak ablation: stale readings are
    trusted as current, commands are never retried, and neither side
    escalates.
    """

    #: Per-channel bounded queue depth; overflow sheds the oldest entry.
    capacity: int = 64
    #: Seconds before an unacknowledged command is retransmitted.
    ack_timeout: float = 0.5
    #: Maximum idempotent retransmissions per command.
    max_retries: int = 2
    #: Age slack (seconds) beyond which a reading counts as stale; 0 means
    #: only a same-tick reading is fresh (matches the watchdog's screen).
    stale_tolerance: float = 0.0
    #: Consecutive stale windows (controller side) / command-less DRL
    #: intervals (node side) before safe-mode escalation.
    deadline_misses: int = 3
    #: Consecutive fresh windows required to leave controller safe mode.
    recovery_windows: int = 2
    #: False = the no-degraded-mode ablation.
    degraded_mode: bool = True
    #: ``(BaseFreq, ScalingCoef)`` broadcast while escalated, and the
    #: watchdog's substitute for a non-finite action.
    safe_action: Tuple[float, float] = (1.0, 1.0)
    #: Node-side fallback governor for deadline misses and watchdog trips
    #: (``performance`` | ``ondemand``).
    fallback: str = "performance"
    #: Bus misbehaviour to inject; None/empty = perfect transport.
    fault_plan: Optional[BusFaultPlan] = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity!r}")
        if self.ack_timeout <= 0:
            raise ValueError(f"ack_timeout must be > 0, got {self.ack_timeout!r}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")
        if self.stale_tolerance < 0:
            raise ValueError(
                f"stale_tolerance must be >= 0, got {self.stale_tolerance!r}"
            )
        if self.deadline_misses < 1:
            raise ValueError(
                f"deadline_misses must be >= 1, got {self.deadline_misses!r}"
            )
        if self.recovery_windows < 1:
            raise ValueError(
                f"recovery_windows must be >= 1, got {self.recovery_windows!r}"
            )
        if self.fallback not in ("performance", "ondemand"):
            raise ValueError(
                f"fallback must be 'performance' or 'ondemand', got {self.fallback!r}"
            )
        if len(self.safe_action) != 2:
            raise ValueError("safe_action must be a (base_freq, scaling_coef) pair")
