"""The benchmark's four workloads: build, run, check and summarise one rep.

A rep is one complete run of a workload in a fresh interpreter.  Its
result carries the host timings, the simulated statistics behind the
end-to-end metrics, the outcome of every correctness check and a digest
of the simulated statistics (equal digests = identical simulated runs).

All load is open-loop: one ``OpenLoopSource`` plays a rate trace inside
the simulation, in one process with one thread.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

APP = "xapian"
#: Budget position within the fleet's controllable power range.
CAP_FRACTION = 0.7
#: Tolerance of the true-power check, the same +5 % that
#: ``PowerCapCoordinator.cap_ok`` allows.
CAP_TOLERANCE = 0.05
#: ``drl-train``: the fig7 smoke profile's episode count and core count,
#: and fig7's agent/training seed.  DDPG training outcomes swing widely
#: with the seed (p99/SLA from 2.3 to 4.3 over five seeds), so this
#: workload keeps fig7's seed and ignores ``--seed``; see NOTES.md.
DRL_SEED = 7
DRL_EPISODES = 8
DRL_CORES = 4
DRL_LOAD = 0.4
#: ``fleet-chaos-hier`` trace layout: gzip segments rotated every this
#: many events, one shard per node.
TRACE_SEGMENT_EVENTS = 50


@dataclass(frozen=True)
class FleetWorkload:
    """One fleet scenario: ``policy=controller`` on xapian, open loop."""

    nodes: int
    cores: int
    routing: str
    load: float
    #: Constant-rate trace length (sim seconds); None = the diurnal
    #: 60 s evaluation trace scaled to mean ``load``.
    sim_s: Optional[float]
    capped: bool = False
    hier: bool = False
    chaos: bool = False
    traced: bool = False
    #: Independent plays per rep (seeds ``--seed`` and ones derived from
    #: it), pooled into one set of statistics.
    plays: int = 1


FLEETS: Dict[str, FleetWorkload] = {
    "fleet-peak-capped": FleetWorkload(
        nodes=256, cores=2, routing="jsq", load=0.6, sim_s=3.0, capped=True
    ),
    "fleet-trough": FleetWorkload(
        nodes=256, cores=2, routing="jsq", load=0.05, sim_s=27.0
    ),
    # Two plays per rep: the SLA-miss share of one play (~1000 misses)
    # spreads by a fifth of its median from seed to seed; pooling two
    # independent plays narrows that by about a factor of 1.4.
    "fleet-chaos-hier": FleetWorkload(
        nodes=16, cores=2, routing="power-aware", load=0.35, sim_s=None,
        capped=True, hier=True, chaos=True, traced=True, plays=2,
    ),
}
NAMES = ("fleet-peak-capped", "fleet-trough", "drl-train", "fleet-chaos-hier")
#: Simulated seconds per timed segment, each about 0.1-0.2 s of host time
#: (see ``calibrate.Clock``; shorter segments track the host's speed
#: swings more closely).
CHUNK_SIM_S = {
    "fleet-peak-capped": 0.1,
    "fleet-trough": 1.0,
    "drl-train": 10.0,
    "fleet-chaos-hier": 1.0,
}


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, default=float)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _latency_stats(latencies: np.ndarray, sla: float) -> Dict[str, float]:
    p50, p99, p999 = np.quantile(latencies, [0.5, 0.99, 0.999])
    return {
        "p50_over_sla": float(p50) / sla,
        "p99_over_sla": float(p99) / sla,
        "p999_over_sla": float(p999) / sla,
    }


class _FleetPlay:
    """One ``ClusterSim`` of a fleet workload, with its trace if any."""

    def __init__(self, spec: "FleetWorkload", name: str, seed: int, tmpdir: str,
                 trace: Any, budget: Optional[float]) -> None:
        from repro.cluster import ClusterConfig, ClusterSim
        from repro.experiments.hier import hier_config
        from repro.faults.fleet import standard_chaos_plan
        from repro.obs import Observability

        self.spec = spec
        self.budget = budget
        self.duration = float(trace.duration)
        config = ClusterConfig(
            app=APP,
            num_nodes=spec.nodes,
            cores_per_node=spec.cores,
            policy="controller",
            routing=spec.routing,
            seed=seed,
            power_cap_watts=budget,
            fault_plan=(
                standard_chaos_plan(1.0, spec.nodes, self.duration, seed=seed)
                if spec.chaos
                else None
            ),
            hier=hier_config() if spec.hier else None,
        )
        self.obs = None
        self.trace_path = None
        if spec.traced:
            self.trace_path = os.path.join(tmpdir, f"fleet-{seed}.trace")
            self.obs = Observability.from_paths(
                trace_out=self.trace_path,
                meta={"app": APP, "workload": name, "seed": seed},
                trace_segment_events=TRACE_SEGMENT_EVENTS,
                trace_compress="gzip",
                trace_shard_key="node",
            )
        self.sim = ClusterSim(config, trace, obs=self.obs)
        self.summary = None

    def play(self, summarize: Callable) -> None:
        self.metrics = self.sim.run()
        if self.obs is not None:
            self.obs.close()
            self.summary = summarize(self.trace_path)

    def _pending_redispatches(self) -> int:
        """Evacuated requests still waiting in a retry backoff."""
        submit = self.sim.dispatcher.submit
        return sum(
            1
            for _t, _p, _s, ev in self.sim.engine._heap
            if not ev.cancelled and ev.callback == submit
        )

    def _true_window_powers(self) -> List[float]:
        """Steady-state fleet power per cap window from true node energy.

        With a trace, the ``node-window`` events (true ``total_energy``
        deltas) are summed per window; otherwise the coordinator's own
        periodic readings are true, since no partition hides a node.
        The first window measures pre-coordination draw and is skipped,
        as ``PowerCapCoordinator.cap_ok`` does.
        """
        if self.trace_path is not None:
            from repro.obs.trace import read_trace

            per_window: Dict[float, float] = {}
            for ev in read_trace(self.trace_path):
                if ev.get("kind") == "node-window":
                    per_window[ev["t"]] = per_window.get(ev["t"], 0.0) + ev["power_w"]
            return [per_window[t] for t in sorted(per_window)][1:]
        history = [w for w in self.sim.coordinator.history if w.reason == "window"]
        return [w.total_power for w in history[1:]]

    def _trace_bytes(self) -> int:
        if self.trace_path is None:
            return 0
        folder, base = os.path.split(self.trace_path)
        return sum(
            os.path.getsize(os.path.join(folder, f))
            for f in os.listdir(folder)
            if f.startswith(base)
        )

    def outcome(self) -> Dict[str, Any]:
        """Checks, counts and raw samples of this play."""
        sim, m, spec = self.sim, self.metrics, self.spec
        nodes = sim.nodes
        generated = sim.source.generated
        in_flight = (
            sum(n.server.drain_remaining() for n in nodes)
            + self._pending_redispatches()
        )
        fleet = m.fleet
        # Requests the dispatcher refused when no lifecycle retries them.
        refused = m.unroutable if sim.lifecycle is None else 0
        dropped = m.dropped_requests + refused
        node_energy = math.fsum(nm.energy_joules for nm in m.node_metrics)
        checks = {
            "requests_conserved": generated == fleet.completed + dropped + in_flight,
            "energy_sums": math.isclose(
                node_energy, fleet.energy_joules, rel_tol=1e-12
            )
            and all(nm.energy_joules > 0 for nm in m.node_metrics),
        }
        true_peak = math.nan
        coordinator_peak = math.nan
        if self.budget is not None:
            windows = self._true_window_powers()
            true_peak = max(windows) / self.budget
            coordinator_peak = m.max_window_power / self.budget
            checks["true_power_within_budget"] = bool(
                windows and true_peak <= 1.0 + CAP_TOLERANCE
            )
        if self.summary is not None:
            checks["trace_summary_complete"] = (
                len(self.summary.nodes) == spec.nodes
                and self.summary.counts.get("node-window", 0)
                == spec.nodes * int(self.duration / sim.config.cap_window)
            )
        coord = sim.coordinator
        facts = {
            "generated": generated,
            "completed": fleet.completed,
            "timeouts": fleet.timeouts,
            "dropped": dropped,
            "in_flight": in_flight,
            "energy_j": fleet.energy_joules,
            "unroutable": m.unroutable,
            "redispatches": m.redispatches,
            "crashes": m.crashes,
            "hier_decisions": m.hier_decisions,
            "hier_updates": m.hier_updates,
            "cap_windows": (
                sum(1 for w in coord.history if w.reason == "window") if coord else 0
            ),
            "throttled_windows": m.throttled_windows,
            "true_peak_over_budget": true_peak,
            # The coordinator's own verdict, reported beside the true-power
            # check and never gated (see NOTES.md, known defect).
            "coordinator_cap_ok": bool(m.cap_ok),
            "coordinator_peak_over_budget": coordinator_peak,
            "engine_events": sim.engine.processed_events,
            "trace_events": self.obs.trace.events_written if self.obs else 0,
            "trace_bytes": self._trace_bytes(),
        }
        latencies = [np.asarray(n.server.metrics.latencies) for n in nodes]
        waits = [np.asarray(n.server.metrics.queue_times) for n in nodes]
        return {
            "checks": checks,
            "facts": facts,
            "metrics": m.as_dict(),
            "latencies": latencies,
            "waits": waits,
        }


class Rep:
    """Build one workload; ``run()`` plays it, ``outcome()`` checks it."""

    def __init__(self, name: str, seed: int, tmpdir: str) -> None:
        self.name = name
        self.seed = seed
        self.tmpdir = tmpdir
        if name == "drl-train":
            self._build_drl()
        else:
            self._build_fleet(FLEETS[name])

    # ------------------------------------------------------------------ fleets

    def _build_fleet(self, spec: FleetWorkload) -> None:
        from repro.cluster import fleet_power_budget, fleet_trace
        from repro.experiments.scenarios import SMOKE, evaluation_trace
        from repro.parallel.pool import derive_seed
        from repro.workload.apps import get_app
        from repro.workload.trace import constant_trace

        self.app = get_app(APP)
        if spec.sim_s is None:
            trace = fleet_trace(
                evaluation_trace(SMOKE), APP, spec.nodes, spec.cores, load=spec.load
            )
        else:
            trace = constant_trace(
                self.app.rps_for_load(spec.load, spec.nodes * spec.cores),
                spec.sim_s,
            )
        budget = (
            fleet_power_budget(spec.nodes, spec.cores, fraction=CAP_FRACTION)
            if spec.capped
            else None
        )
        seeds = [self.seed] + [
            derive_seed(self.seed, "perfbench", i) for i in range(1, spec.plays)
        ]
        self.plays = [
            _FleetPlay(spec, self.name, s, self.tmpdir, trace, budget) for s in seeds
        ]
        self.node_seconds = spec.plays * spec.nodes * float(trace.duration)

        def play(summarize: Callable) -> None:
            for p in self.plays:
                p.play(summarize)

        self._play = play

    def _fleet_outcome(self) -> Dict[str, Any]:
        parts = [p.outcome() for p in self.plays]
        checks = {
            k: all(part["checks"][k] for part in parts) for k in parts[0]["checks"]
        }
        facts: Dict[str, Any] = {}
        for key, first in parts[0]["facts"].items():
            values = [part["facts"][key] for part in parts]
            if key == "coordinator_cap_ok":
                facts[key] = all(values)
            elif key.endswith("_over_budget"):
                facts[key] = max(values)
            else:
                facts[key] = sum(values)
        latencies = np.concatenate([x for part in parts for x in part["latencies"]])
        waits = np.concatenate([x for part in parts for x in part["waits"]])
        stats = _latency_stats(latencies, self.app.sla)
        stats.update(
            queue_wait_ms_mean=float(waits.mean()) * 1e3,
            sla_miss_frac=(facts["timeouts"] + facts["dropped"] + facts["in_flight"])
            / facts["generated"],
            energy_j_per_req=facts["energy_j"] / facts["completed"],
        )
        digest = _digest(
            {
                "metrics": [part["metrics"] for part in parts],
                "stats": stats,
                "facts": facts,
            }
        )
        return {"stats": stats, "facts": facts, "checks": checks, "digest": digest}

    # --------------------------------------------------------------------- drl

    def _build_drl(self) -> None:
        from repro.core.training import train_deeppower
        from repro.experiments import runner
        from repro.experiments.fig7_main import tuned_agent_setup
        from repro.experiments.scenarios import SMOKE, evaluation_trace
        from repro.workload.apps import get_app

        self.app = get_app(APP)
        trace = evaluation_trace(SMOKE).scaled_to_mean(
            self.app.rps_for_load(DRL_LOAD, DRL_CORES)
        )
        self.duration = float(trace.duration)
        self.node_seconds = DRL_EPISODES * self.duration
        self.agent, config = tuned_agent_setup(DRL_SEED, app=self.app)
        # Keep every episode's stack so the checks can read its source and
        # server after the run (a plain pass-through, installed in every
        # mode so traced and untraced reps run the same code).
        self.contexts: List[Any] = []
        build_context = runner.build_context

        def keep_context(*args, **kwargs):
            ctx = build_context(*args, **kwargs)
            self.contexts.append(ctx)
            return ctx

        runner.build_context = keep_context

        def play(summarize: Callable) -> None:
            self.result = train_deeppower(
                self.app, trace, episodes=DRL_EPISODES, num_cores=DRL_CORES,
                seed=DRL_SEED, agent=self.agent, config=config,
            )

        self._play = play

    def _drl_outcome(self) -> Dict[str, Any]:
        episodes = self.result.episodes
        ctxs = self.contexts
        generated = sum(c.source.generated for c in ctxs)
        completed = sum(c.server.metrics.completed for c in ctxs)
        timeouts = sum(c.server.metrics.timeouts for c in ctxs)
        in_flight = sum(c.server.drain_remaining() for c in ctxs)
        energies = [e.avg_power_watts * self.duration for e in episodes]
        energy = math.fsum(energies)
        latencies = np.concatenate(
            [np.asarray(c.server.metrics.latencies) for c in ctxs]
        )
        waits = np.concatenate(
            [np.asarray(c.server.metrics.queue_times) for c in ctxs]
        )
        checks = {
            "requests_conserved": len(ctxs) == DRL_EPISODES
            and all(
                c.source.generated
                == c.server.metrics.completed + c.server.drain_remaining()
                for c in ctxs
            ),
            "energy_sums": all(e > 0 for e in energies)
            and math.isclose(energy, sum(energies), rel_tol=1e-12),
        }
        stats = _latency_stats(latencies, self.app.sla)
        stats.update(
            queue_wait_ms_mean=float(waits.mean()) * 1e3,
            sla_miss_frac=(timeouts + in_flight) / generated,
            energy_j_per_req=energy / completed,
        )
        params = hashlib.sha256()
        for net in (self.agent.actor, self.agent.critic):
            for p in net.parameters():
                params.update(p.data.tobytes())
        facts = {
            "generated": generated,
            "completed": completed,
            "timeouts": timeouts,
            "dropped": 0,
            "in_flight": in_flight,
            "engine_events": sum(c.engine.processed_events for c in ctxs),
            "agent_updates": self.agent.updates,
            "trace_events": 0,
            "trace_bytes": 0,
        }
        digest = _digest(
            {
                "episodes": [vars(e) for e in episodes],
                "stats": stats,
                "facts": facts,
                "params": params.hexdigest(),
            }
        )
        return {"stats": stats, "facts": facts, "checks": checks, "digest": digest}

    # --------------------------------------------------------------------- run

    def run(self, summarize: Callable = None) -> None:
        """Play the workload (the timed part of a rep)."""
        if summarize is None:
            from repro.obs.summarize import summarize_fleet_trace as summarize
        self._play(summarize)

    def outcome(self) -> Dict[str, Any]:
        """Checks and statistics of the finished run (untimed)."""
        if self.name == "drl-train":
            return self._drl_outcome()
        return self._fleet_outcome()
