"""Layer ledger for the traced run: class-level timing wrappers.

Every wrapper is installed on a *class* before any simulated object
exists.  Listeners and periodic tasks capture bound methods when the
stack is built, so a class attribute replaced afterwards would be missed;
an *instance* attribute would be worse: ``Cpu.set_frequencies`` and
``FleetBatch.adopt_controllers`` treat an instance-level
``set_frequency`` / ``tick`` as an override and switch to their per-core
lanes.  Class-level wrappers leave every instance's ``__dict__``
untouched, so the traced run takes the lanes the untraced run takes (the
parent process checks that the two runs' digests are equal).

A span covers one call into a layer.  Its *self* time is its duration
minus the time of the spans it encloses, so the layers' self times add up
to the traced wall time minus what ran outside any span
(``unattributed_frac``).
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter
from typing import Callable, Dict, List

#: Layer names (keys of ``Ledger.self_s``).
LAYERS = (
    "sim",
    "workload",
    "cluster.dispatch",
    "server",
    "cpu",
    "core.controller",
    "core.runtime",
    "rl",
    "cluster.powercap",
    "hier",
    "cluster.lifecycle",
    "obs.trace",
    "obs.summarize",
)

COUNTERS = (
    "sim.cancels",
    "cpu.dvfs_writes",
    "cpu.dvfs_switches",
    "cpu.rapl_reads",
    "server.completion_reschedules",
    "core.controller.ticks",
    "core.controller.ticks_changed",
    "core.runtime.steps",
    "rl.updates",
    "cluster.lifecycle.evacuated",
)
SAMPLES = ("core.controller.tick", "rl.act", "rl.update")


class Ledger:
    """Self seconds per layer, counts made at the layer boundaries and
    per-call durations, filled by the wrappers :meth:`install` puts in."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.samples: Dict[str, array] = {}
        # Child-time accumulators of the open spans, innermost last.
        self._stack: List[float] = []
        self.reset()

    def reset(self) -> None:
        """Zero every entry in place (the wrappers hold these objects)."""
        for layer in LAYERS:
            self.self_s[layer] = 0.0
        for name in COUNTERS:
            self.counts[name] = 0
        for name in SAMPLES:
            self.samples[name] = array("d")
        del self._stack[:]

    def span(self, layer: str, fn: Callable, after: Callable = None) -> Callable:
        """``fn`` timed as one span of ``layer``; ``after(args, result, dt)``
        runs once the span is closed (outside its own time)."""
        stack = self._stack
        totals = self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                totals[layer] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, result, dt)
            return result

        return wrapper

    def _wrap(self, cls, name: str, layer: str, after: Callable = None) -> None:
        setattr(cls, name, self.span(layer, cls.__dict__[name], after))

    def _count(self, name: str) -> Callable:
        counts = self.counts

        def after(args, result, dt):
            counts[name] += 1

        return after

    def _sample(self, name: str, counter: str = None) -> Callable:
        samples, counts = self.samples, self.counts

        def after(args, result, dt):
            samples[name].append(dt)
            if counter is not None and result is not None:
                counts[counter] += 1

        return after

    def install(self) -> None:
        """Install every wrapper.  Call once, before building any stack."""
        from repro.cluster.batch import FleetBatch
        from repro.cluster.dispatch import Dispatcher, StragglerDetector
        from repro.cluster.lifecycle import NodeLifecycle
        from repro.cluster.node import ClusterNode
        from repro.cluster.powercap import FrequencyCap, PowerCapCoordinator
        from repro.core.reward import RewardCalculator
        from repro.core.runtime import DeepPowerRuntime
        from repro.core.state_observer import StateObserver
        from repro.core.thread_controller import ThreadController
        from repro.cpu.core import Core
        from repro.cpu.rapl import PowerMonitor
        from repro.cpu.topology import Cpu
        from repro.faults.injectors import FaultHarness
        from repro.hier.coordinator import LearnedBudgetCoordinator
        from repro.hier.obs import FleetObserver
        from repro.obs.trace import TraceWriter
        from repro.rl.ddpg import DdpgAgent
        from repro.server.server import Server
        from repro.server.worker import Worker
        from repro.sim.engine import Engine, PeriodicTask
        from repro.workload.arrivals import OpenLoopSource

        counts = self.counts

        # ---- sim: the event loop, heap pushes and cancels
        for name in ("run_until", "step", "schedule_at"):
            self._wrap(Engine, name, "sim")
        self._wrap(PeriodicTask, "_fire", "sim")
        cancel = Engine.__dict__["cancel"]

        def counted_cancel(self, handle):
            if handle.active:
                counts["sim.cancels"] += 1
            return cancel(self, handle)

        Engine.cancel = self.span("sim", counted_cancel)

        # ---- workload: arrivals and service sampling
        self._wrap(OpenLoopSource, "_arrive", "workload")

        # ---- cluster.dispatch
        self._wrap(Dispatcher, "submit", "cluster.dispatch")
        self._wrap(ClusterNode, "submit", "cluster.dispatch")

        # ---- server: queue and workers
        for name in ("submit", "resume"):
            self._wrap(Server, name, "server")
        self._wrap(Worker, "_complete", "server")
        on_freq_change = Worker.__dict__["_on_freq_change"]

        def counted_on_freq_change(self, core, old, new):
            if self.current is not None:
                counts["server.completion_reschedules"] += 1
            return on_freq_change(self, core, old, new)

        Worker._on_freq_change = self.span("server", counted_on_freq_change)

        # ---- cpu: DVFS writes, busy edges, RAPL reads
        set_frequency = Core.__dict__["set_frequency"]

        def counted_set_frequency(self, freq, *, quantize=True):
            before = self.switch_count
            counts["cpu.dvfs_writes"] += 1
            applied = set_frequency(self, freq, quantize=quantize)
            if self.switch_count != before:
                counts["cpu.dvfs_switches"] += 1
            return applied

        Core.set_frequency = self.span("cpu", counted_set_frequency)
        self._wrap(Core, "set_busy", "cpu")
        self._wrap(Cpu, "set_frequencies", "cpu")
        self._wrap(Cpu, "set_all_frequencies", "cpu")
        self._wrap(PowerMonitor, "read", "cpu", self._count("cpu.rapl_reads"))

        # ---- core.controller: per-node Algorithm-1 tick and the fleet tick
        tick = ThreadController.__dict__["tick"]

        def counted_tick(self):
            before = counts["cpu.dvfs_switches"]
            tick(self)
            counts["core.controller.ticks"] += 1
            if counts["cpu.dvfs_switches"] != before:
                counts["core.controller.ticks_changed"] += 1

        ThreadController.tick = self.span(
            "core.controller", counted_tick, self._sample("core.controller.tick")
        )
        tick_all = FleetBatch.__dict__["_tick_all"]

        def counted_tick_all(self):
            before = self.freqs[:, : self.num_workers].copy()
            tick_all(self)
            counts["core.controller.ticks"] += self.num_nodes
            changed = (before != self.freqs[:, : self.num_workers]).any(axis=1)
            counts["core.controller.ticks_changed"] += int(changed.sum())

        FleetBatch._tick_all = self.span(
            "core.controller", counted_tick_all, self._sample("core.controller.tick")
        )

        # ---- core.runtime: DRL observe / reward / step
        for name in ("_drl_step", "_drl_step_bus"):
            self._wrap(DeepPowerRuntime, name, "core.runtime", self._count("core.runtime.steps"))
        self._wrap(DeepPowerRuntime, "start", "core.runtime")
        self._wrap(StateObserver, "observe", "core.runtime")
        self._wrap(RewardCalculator, "compute", "core.runtime")

        # ---- rl + nn: agent act and update (node agents and the fleet agent)
        self._wrap(DdpgAgent, "act", "rl", self._sample("rl.act"))
        self._wrap(DdpgAgent, "update", "rl", self._sample("rl.update", "rl.updates"))
        self._wrap(DdpgAgent, "observe", "rl")

        # ---- cluster.powercap
        for name in ("_rebalance", "_decide", "on_membership_change"):
            self._wrap(PowerCapCoordinator, name, "cluster.powercap")
        self._wrap(FrequencyCap, "set_ceiling", "cluster.powercap")

        # ---- hier: learned budget decisions and fleet observation
        self._wrap(LearnedBudgetCoordinator, "_decide", "hier")
        self._wrap(FleetObserver, "observe", "hier")

        # ---- cluster.lifecycle + faults
        for name in (
            "start", "_crash", "_restart", "_recovered", "_handle_evacuated",
            "_partition",
        ):
            self._wrap(NodeLifecycle, name, "cluster.lifecycle")
        self._wrap(StragglerDetector, "check", "cluster.lifecycle")
        self._wrap(FaultHarness, "arm", "cluster.lifecycle")

        def count_evacuated(args, result, dt):
            counts["cluster.lifecycle.evacuated"] += len(result)

        self._wrap(Server, "evacuate", "server", count_evacuated)

        # ---- obs: trace writes
        for name in ("emit", "flush", "close"):
            self._wrap(TraceWriter, name, "obs.trace")

    def timed_summarize(self, fn: Callable) -> Callable:
        """``fn`` (the fleet-trace summarizer) timed as ``obs.summarize``."""
        return self.span("obs.summarize", fn)
