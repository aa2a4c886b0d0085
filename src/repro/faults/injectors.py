"""Fault injectors: interpret a :class:`~repro.faults.plan.FaultPlan`
against a live simulated stack.

Each injector hooks the narrow surface its faults flow through.  The RAPL
monitor's ``read`` and the telemetry channel's ``snapshot`` are replaced
by faulting closures on the *instance*; the agent's replay pool is
poisoned in place; DVFS writes are vetted through each core's
``actuator`` slot (:class:`ActuatorFaults`), which the batched fleet tick
can evaluate for every node at once.  The runtime above never knows, and
experiences exactly what a real deployment would: stale counters, lost
messages, writes that lie.

Injection is armed once per run (``arm()``), is a no-op for empty plans,
and counts every fault it actually delivers in ``counts`` so experiments
can report injected-fault totals next to the watchdog's trip statistics.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from ..cpu.rapl import EnergySample, PowerMonitor
from ..sim.engine import Engine
from .plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cpu.topology import Cpu
    from ..server.telemetry import TelemetryChannel

__all__ = ["SensorFaults", "ActuatorFaults", "AgentFaults", "FaultHarness"]

#: Uniforms an :class:`ActuatorFaults` draws per ``rng.random`` refill.
UNIFORM_BLOCK = 256


class _Injector:
    """Shared arm-once bookkeeping + fault counters."""

    def __init__(self, engine: Engine, plan: FaultPlan, rng: np.random.Generator) -> None:
        self.engine = engine
        self.plan = plan
        self.rng = rng
        self.armed = False
        self.counts: Dict[str, int] = {}

    def _count(self, kind: str, n: int = 1) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + n

    @property
    def total_injected(self) -> int:
        return sum(self.counts.values())

    def arm(self) -> None:
        if self.armed:
            return
        self.armed = True
        if self.plan.is_empty:
            return
        self._arm()

    def _arm(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SensorFaults(_Injector):
    """Telemetry-side faults: stale/frozen RAPL, counter glitches, noise,
    dropped telemetry snapshots.

    Parameters
    ----------
    engine, plan, rng:
        Clock, scenario, and the seeded stream for stochastic faults.
    monitor:
        The :class:`~repro.cpu.rapl.PowerMonitor` whose reads are faulted
        (optional — telemetry-only scenarios may omit it).
    telemetry:
        The server's telemetry channel whose snapshots may be dropped.
    """

    def __init__(
        self,
        engine: Engine,
        plan: FaultPlan,
        rng: np.random.Generator,
        monitor: Optional[PowerMonitor] = None,
        telemetry: Optional["TelemetryChannel"] = None,
    ) -> None:
        super().__init__(engine, plan, rng)
        self.monitor = monitor
        self.telemetry = telemetry
        self._frozen_until = -math.inf
        self._frozen_sample: Optional[EnergySample] = None
        self._pending_jump = 0.0
        self._drop_until = -math.inf
        self._last_snapshot = None

    # ----------------------------------------------------------------- wiring

    def _arm(self) -> None:
        if self.monitor is not None:
            self._wrap_monitor(self.monitor)
            for ev in self.plan.events_of("sensor.freeze"):
                self.engine.schedule_at(ev.time, self._begin_freeze, ev.end)
            for ev in self.plan.events_of("sensor.glitch"):
                self.engine.schedule_at(ev.time, self._queue_glitch, ev.magnitude)
        if self.telemetry is not None:
            self._wrap_telemetry(self.telemetry)
            for ev in self.plan.events_of("telemetry.drop"):
                self.engine.schedule_at(ev.time, self._begin_drop, ev.end)

    def _wrap_monitor(self, monitor: PowerMonitor) -> None:
        true_read = monitor.read

        def faulted_read() -> EnergySample:
            now = self.engine.now
            if now < self._frozen_until and self._frozen_sample is not None:
                self._count("sensor.freeze")
                return EnergySample(
                    time=now,
                    counter=self._frozen_sample.counter,
                    energy=self._frozen_sample.energy,
                )
            sample = true_read()
            counter, energy = sample.counter, sample.energy
            if self._pending_jump:
                self._count("sensor.glitch")
                counter += self._pending_jump
                energy += self._pending_jump
                self._pending_jump = 0.0
            if self.plan.sensor_noise_std > 0.0:
                eps = self.rng.normal(0.0, self.plan.sensor_noise_std)
                self._count("sensor.noise")
                counter += eps
                energy += eps
            if monitor.wrap_joules:
                counter %= monitor.wrap_joules
            return EnergySample(time=now, counter=counter, energy=energy)

        self._true_read = true_read
        monitor.read = faulted_read  # type: ignore[method-assign]

    def _wrap_telemetry(self, telemetry: "TelemetryChannel") -> None:
        true_snapshot = telemetry.snapshot

        def faulted_snapshot():
            # The server always *produces* the snapshot (its window counters
            # reset either way); a drop loses it in transit, so the consumer
            # keeps seeing the last message that made it through.
            snap = true_snapshot()
            dropped = self.engine.now < self._drop_until
            if not dropped and self.plan.telemetry_drop_prob > 0.0:
                dropped = self.rng.random() < self.plan.telemetry_drop_prob
            if dropped and self._last_snapshot is not None:
                self._count("telemetry.drop")
                return self._last_snapshot
            self._last_snapshot = snap
            return snap

        telemetry.snapshot = faulted_snapshot  # type: ignore[method-assign]

    # ------------------------------------------------------------- schedulers

    def _begin_freeze(self, until: float) -> None:
        self._frozen_sample = self._true_read()
        self._frozen_until = until

    def _queue_glitch(self, joules: float) -> None:
        self._pending_jump += joules

    def _begin_drop(self, until: float) -> None:
        self._drop_until = until


class ActuatorFaults(_Injector):
    """DVFS-side faults: writes that silently fail, switch-latency spikes,
    and transient core offlining (parked at fmin, writes ignored).

    Installed as every core's ``actuator``, so
    :meth:`~repro.cpu.core.Core.set_frequency` asks :meth:`refuse` before
    applying a level.  The fail/delay uniforms come from a buffered block
    of ``rng.random(k)`` consumed in order — the same doubles as one
    scalar draw per decision.  The buffer, its cursor and the per-core
    offline deadlines are arrays so a
    :class:`~repro.cluster.batch.FleetBatch` can re-point them at rows of
    fleet matrices and draw every injector's tick decisions in one pass.
    """

    def __init__(
        self,
        engine: Engine,
        plan: FaultPlan,
        rng: np.random.Generator,
        cpu: "Cpu",
    ) -> None:
        super().__init__(engine, plan, rng)
        self.cpu = cpu
        self._offline_until = np.full(cpu.num_cores, -math.inf)
        self._uniforms = np.empty(UNIFORM_BLOCK)
        self._cursor = np.full(1, UNIFORM_BLOCK)  # empty: refill on first draw
        self._passthrough = False

    def _arm(self) -> None:
        for core in self.cpu.cores:
            core.actuator = self
        for ev in self.plan.events_of("actuator.offline"):
            if not 0 <= ev.target < self.cpu.num_cores:
                raise ValueError(f"actuator.offline target {ev.target} out of range")
            self.engine.schedule_at(ev.time, self._begin_offline, ev.target, ev.end)

    def _uniform(self) -> float:
        buf, cur = self._uniforms, self._cursor
        i = int(cur[0])
        if i == len(buf):
            self.rng.random(out=buf)
            i = 0
        cur[0] = i + 1
        return float(buf[i])

    def refuse(self, core, freq: float) -> bool:
        """Decide one DVFS write: ``True`` drops it (offline core, failed
        write, or a delayed write that lands ``plan.dvfs_delay`` later)."""
        if self._passthrough:
            return False
        if self.engine.now < self._offline_until[core.core_id]:
            self._count("actuator.offline_write")
            return True
        plan = self.plan
        if plan.dvfs_fail_prob > 0.0 and self._uniform() < plan.dvfs_fail_prob:
            self._count("actuator.write_fail")
            return True
        if plan.dvfs_delay_prob > 0.0 and self._uniform() < plan.dvfs_delay_prob:
            self._count("actuator.delay")
            self.engine.schedule_after(plan.dvfs_delay, self.apply, core, freq)
            return True
        return False

    def apply(self, core, freq: float, quantize: bool = True) -> float:
        """Write ``freq`` to ``core`` without vetting it (delayed writes
        landing, offline parking, writes already decided elsewhere)."""
        self._passthrough = True
        try:
            return core.set_frequency(freq, quantize=quantize)
        finally:
            self._passthrough = False

    def _begin_offline(self, core_id: int, until: float) -> None:
        self._count("actuator.offline")
        self.apply(self.cpu[core_id], self.cpu.table.fmin)
        self._offline_until[core_id] = until


class AgentFaults(_Injector):
    """Learner-side faults: replay-pool corruption and forced non-finite
    losses, delivered by poisoning stored transitions.

    ``agent.corrupt_replay`` NaN-poisons ``magnitude`` of the pool (state
    and reward slots); ``agent.nan_loss`` plants a single ``+inf`` reward,
    the minimal seed that turns any batch containing it into a non-finite
    loss.  Both exercise the guarded ``update()`` path, which must skip the
    batch and count it instead of training the networks on garbage.
    """

    def __init__(
        self,
        engine: Engine,
        plan: FaultPlan,
        rng: np.random.Generator,
        agent,
    ) -> None:
        super().__init__(engine, plan, rng)
        self.agent = agent

    def _arm(self) -> None:
        for ev in self.plan.events_of("agent.corrupt_replay"):
            self.engine.schedule_at(ev.time, self._corrupt_replay, ev.magnitude)
        for ev in self.plan.events_of("agent.nan_loss"):
            self.engine.schedule_at(ev.time, self._plant_inf_reward)

    def _corrupt_replay(self, fraction: float) -> None:
        buf = self.agent.replay
        n = len(buf)
        if n == 0:
            return
        k = max(1, int(round(fraction * n)))
        idx = self.rng.integers(0, n, size=k)
        buf._states[idx, 0] = np.nan
        buf._rewards[idx] = np.nan
        self._count("agent.corrupt_replay", k)

    def _plant_inf_reward(self) -> None:
        buf = self.agent.replay
        if len(buf) == 0:
            return
        buf._rewards[int(self.rng.integers(0, len(buf)))] = np.inf
        self._count("agent.nan_loss")


class FaultHarness:
    """Bundle the three injectors for one run.

    Builds only the injectors whose targets were provided, arms them all
    with one call, and aggregates their fault counters.  With an empty
    plan, ``arm()`` wraps nothing and draws nothing — the run is bitwise
    identical to an un-instrumented one.
    """

    def __init__(
        self,
        plan: FaultPlan,
        engine: Engine,
        *,
        cpu: Optional["Cpu"] = None,
        monitor: Optional[PowerMonitor] = None,
        telemetry: Optional["TelemetryChannel"] = None,
        agent=None,
    ) -> None:
        self.plan = plan
        self.engine = engine
        # Independent streams per injector: faults in one subsystem never
        # perturb the draw sequence of another.
        self.sensor = SensorFaults(
            engine, plan, np.random.default_rng([plan.seed, 1]),
            monitor=monitor, telemetry=telemetry,
        )
        self.actuator = (
            ActuatorFaults(engine, plan, np.random.default_rng([plan.seed, 2]), cpu)
            if cpu is not None
            else None
        )
        self.agent_faults = (
            AgentFaults(engine, plan, np.random.default_rng([plan.seed, 3]), agent)
            if agent is not None
            else None
        )

    def arm(self) -> "FaultHarness":
        self.sensor.arm()
        if self.actuator is not None:
            self.actuator.arm()
        if self.agent_faults is not None:
            self.agent_faults.arm()
        return self

    @property
    def counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = dict(self.sensor.counts)
        for inj in (self.actuator, self.agent_faults):
            if inj is not None:
                for k, v in inj.counts.items():
                    merged[k] = merged.get(k, 0) + v
        return merged

    @property
    def total_injected(self) -> int:
        return sum(self.counts.values())
