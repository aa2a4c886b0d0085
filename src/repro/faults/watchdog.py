"""Runtime watchdog: validate the DRL control loop, degrade gracefully.

The DeepPower runtime assumes perfect telemetry, perfect DVFS actuation and
a numerically healthy learner.  The watchdog drops that assumption: every
DRL step it screens the telemetry window, energy reading, state vector,
reward and action for staleness, implausibility and non-finiteness,
substitutes a safe value for anything broken, and drives a trip/re-arm
state machine:

* **Trip** — when ``trip_threshold`` of the last ``window_steps`` steps
  were anomalous, the runtime abandons the DRL policy and the node falls
  back to a classic SLA-safe governor (:mod:`repro.cpu.governors`).
* **Re-arm** — after ``cooldown_steps`` consecutive healthy steps the DRL
  loop resumes.  A relapse (re-trip soon after recovery) doubles the
  cooldown (exponential backoff, capped), so a flapping sensor cannot make
  the system oscillate between controllers at the trip frequency.

The watchdog is pure decision logic — it owns no engine tasks and touches
no hardware.  The runtime publishes its verdicts as control-bus commands
and the node endpoint (:class:`repro.control.NodeEndpoint`) applies them,
so all actuation stays in one place.  With healthy inputs
every screen is an identity function and no RNG is consumed: enabling the
watchdog on a faultless run changes nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..server.telemetry import TelemetrySnapshot

__all__ = ["WatchdogConfig", "Watchdog"]


@dataclass
class WatchdogConfig:
    """Knobs for anomaly detection and graceful degradation."""

    #: Anomalous steps within the sliding window that trip the fallback.
    trip_threshold: int = 3
    #: Sliding-window length, in DRL steps.
    window_steps: int = 6
    #: Consecutive healthy steps required before re-arming the DRL loop.
    cooldown_steps: int = 3
    #: Cooldown multiplier applied on a relapse (re-trip soon after re-arm).
    backoff_factor: float = 2.0
    #: Upper bound for the backed-off cooldown.
    max_cooldown_steps: int = 48
    #: A re-trip within this many steps of a recovery counts as a relapse.
    relapse_window: int = 8
    #: Window power above ``margin * max_socket_power`` is a sensor spike.
    max_power_margin: float = 2.0
    #: Controller ticks below this fraction of expected flags missed ticks.
    min_tick_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.trip_threshold <= 0 or self.window_steps < self.trip_threshold:
            raise ValueError("need 0 < trip_threshold <= window_steps")
        if self.cooldown_steps <= 0:
            raise ValueError("cooldown_steps must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")


class Watchdog:
    """Per-step screening + the trip/re-arm state machine.

    Parameters
    ----------
    cfg:
        Detection/degradation knobs.
    safe_action:
        ``(BaseFreq, ScalingCoef)`` substituted for a non-finite action
        (``ControlPlaneConfig.safe_action``; (1, 1) drives every score
        >= 1, i.e. turbo — SLA-safe).
    max_power_watts, min_power_watts:
        The socket's physical power envelope (same numbers the reward
        calculator normalises with); bounds plausible window energy.
    long_time, short_time:
        The two control periods — staleness and missed-tick detection are
        expressed in these units.
    """

    def __init__(
        self,
        cfg: Optional[WatchdogConfig] = None,
        *,
        safe_action: Tuple[float, float],
        max_power_watts: float,
        min_power_watts: float,
        long_time: float,
        short_time: float,
    ) -> None:
        self.cfg = cfg or WatchdogConfig()
        self.safe_action = tuple(safe_action)
        self.long_time = long_time
        self.expected_ticks = long_time / short_time if short_time > 0 else 0.0
        self.max_plausible_watts = self.cfg.max_power_margin * max_power_watts
        self._last_power = min_power_watts

        # Counters (public diagnostics).
        self.trips = 0
        self.recoveries = 0
        self.total_anomalies = 0
        self.anomaly_counts: Dict[str, int] = {}
        self.fallback_steps = 0

        # State machine internals.
        self.tripped = False
        self._recent: deque = deque(maxlen=self.cfg.window_steps)
        self._step_anomalies = 0
        self._healthy_streak = 0
        self._cooldown = self.cfg.cooldown_steps
        self._step_index = 0
        self._last_recovery_step: Optional[int] = None

        # Last-known-good values for substitution.
        self._last_state: Optional[np.ndarray] = None
        self._last_queue_len = 0

    # -------------------------------------------------------------- screening

    def _note(self, kind: str) -> None:
        self._step_anomalies += 1
        self.total_anomalies += 1
        self.anomaly_counts[kind] = self.anomaly_counts.get(kind, 0) + 1

    @property
    def step_anomalies(self) -> int:
        """Anomalies noted since ``begin_step`` (for StepRecord diagnostics)."""
        return self._step_anomalies

    def begin_step(self) -> None:
        """Open a new DRL step's anomaly tally."""
        self._step_anomalies = 0

    def screen_window(
        self, snap: TelemetrySnapshot, energy: float, now: float, ticks: int
    ) -> Tuple[TelemetrySnapshot, float]:
        """Validate one telemetry window + energy reading; sanitize both.

        Stale snapshots (timestamp behind the tick, or an empty window) are
        replaced with a neutral window; frozen / spiking / non-finite energy
        is replaced using the last healthy window power.
        """
        stale = snap.time < now - 1e-9 or snap.window <= 0.0
        if stale:
            self._note("telemetry_stale")
            snap = TelemetrySnapshot(
                time=now,
                window=self.long_time,
                num_req=0,
                queue_len=self._last_queue_len,
                queue_frac=(0, 0, 0),
                core_frac=(0, 0, 0),
                timeouts=0,
                completed=0,
                utilization=0.0,
            )
        else:
            self._last_queue_len = snap.queue_len

        window = max(snap.window, 1e-12)
        if not np.isfinite(energy) or energy < 0.0:
            self._note("energy_invalid")
            energy = self._last_power * window
        elif energy == 0.0:
            # Physically impossible over a non-empty window (package power
            # is always > 0): the counter is frozen.
            self._note("sensor_frozen")
            energy = self._last_power * window
        elif energy / window > self.max_plausible_watts:
            self._note("sensor_spike")
            energy = self.max_plausible_watts * window
        else:
            self._last_power = energy / window

        if (
            not self.tripped
            and self.expected_ticks > 0
            and ticks < self.cfg.min_tick_fraction * self.expected_ticks
        ):
            self._note("missed_ticks")
        return snap, energy

    def screen_state(self, state: np.ndarray) -> np.ndarray:
        """Replace a non-finite state with the last healthy one (or zeros)."""
        if np.isfinite(state).all():
            self._last_state = state
            return state
        self._note("state_nonfinite")
        if self._last_state is not None:
            return self._last_state
        return np.zeros_like(state)

    def screen_reward(self, reward):
        """Zero out a non-finite reward breakdown."""
        if np.isfinite(reward.total):
            return reward
        self._note("reward_nonfinite")
        return type(reward)(total=0.0, energy_term=0.0, timeout_term=0.0, queue_term=0.0)

    def screen_action(self, action: np.ndarray) -> np.ndarray:
        """Clamp an out-of-box action; replace a non-finite one outright."""
        if not np.isfinite(action).all():
            self._note("action_nonfinite")
            return np.asarray(self.safe_action, dtype=float)
        if (action < 0.0).any() or (action > 1.0).any():
            self._note("action_out_of_bounds")
            return np.clip(action, 0.0, 1.0)
        return action

    # ---------------------------------------------------------- state machine

    def finish_step(self) -> Optional[str]:
        """Close the step; returns ``"trip"``, ``"rearm"`` or None."""
        anomalous = self._step_anomalies > 0
        self._step_index += 1
        if not self.tripped:
            self._recent.append(anomalous)
            if sum(self._recent) >= self.cfg.trip_threshold:
                self._trip()
                return "trip"
            return None

        self.fallback_steps += 1
        if anomalous:
            self._healthy_streak = 0
        else:
            self._healthy_streak += 1
            if self._healthy_streak >= self._cooldown:
                self._rearm()
                return "rearm"
        return None

    def _trip(self) -> None:
        self.trips += 1
        self.tripped = True
        self._healthy_streak = 0
        self._recent.clear()
        if (
            self._last_recovery_step is not None
            and self._step_index - self._last_recovery_step <= self.cfg.relapse_window
        ):
            self._cooldown = min(
                int(round(self._cooldown * self.cfg.backoff_factor)),
                self.cfg.max_cooldown_steps,
            )
        else:
            self._cooldown = self.cfg.cooldown_steps

    def _rearm(self) -> None:
        self.recoveries += 1
        self.tripped = False
        self._recent.clear()
        self._last_recovery_step = self._step_index

    # ------------------------------------------------------------ diagnostics

    @property
    def current_cooldown(self) -> int:
        """Healthy steps currently required to re-arm (grows on relapses)."""
        return self._cooldown

    def stats(self) -> Dict:
        """Counter snapshot for reports and experiment tables."""
        return {
            "trips": self.trips,
            "recoveries": self.recoveries,
            "tripped": self.tripped,
            "total_anomalies": self.total_anomalies,
            "anomaly_counts": dict(self.anomaly_counts),
            "fallback_steps": self.fallback_steps,
            "current_cooldown": self._cooldown,
        }

    # ------------------------------------------------------------- persistence

    def state_dict(self) -> Dict:
        """Full snapshot: counters plus the trip/re-arm machine internals."""
        return {
            "trips": self.trips,
            "recoveries": self.recoveries,
            "total_anomalies": self.total_anomalies,
            "anomaly_counts": dict(self.anomaly_counts),
            "fallback_steps": self.fallback_steps,
            "tripped": self.tripped,
            "recent": list(self._recent),
            "step_anomalies": self._step_anomalies,
            "healthy_streak": self._healthy_streak,
            "cooldown": self._cooldown,
            "step_index": self._step_index,
            "last_recovery_step": self._last_recovery_step,
            "last_power": self._last_power,
            "last_state": None if self._last_state is None else self._last_state.copy(),
            "last_queue_len": self._last_queue_len,
        }

    def load_state_dict(self, state: Dict) -> None:
        self.trips = int(state["trips"])
        self.recoveries = int(state["recoveries"])
        self.total_anomalies = int(state["total_anomalies"])
        self.anomaly_counts = {k: int(v) for k, v in state["anomaly_counts"].items()}
        self.fallback_steps = int(state["fallback_steps"])
        self.tripped = bool(state["tripped"])
        self._recent = deque(
            (bool(v) for v in state["recent"]), maxlen=self.cfg.window_steps
        )
        self._step_anomalies = int(state["step_anomalies"])
        self._healthy_streak = int(state["healthy_streak"])
        self._cooldown = int(state["cooldown"])
        self._step_index = int(state["step_index"])
        last_rec = state["last_recovery_step"]
        self._last_recovery_step = None if last_rec is None else int(last_rec)
        self._last_power = float(state["last_power"])
        last_state = state["last_state"]
        self._last_state = None if last_state is None else np.array(last_state)
        self._last_queue_len = int(state["last_queue_len"])
