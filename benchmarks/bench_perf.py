#!/usr/bin/env python
"""Perf-regression harness for the simulation hot paths (ISSUE 3).

Measures three things and writes ``BENCH_perf.json`` at the repo root:

a. **Controller ticks/sec** — cost of the 1 ms thread-controller tick in
   isolation (warm steady-state server, direct ``tick()`` calls with the
   DRL parameters cycling so DVFS levels actually change), for both the
   vectorised controller and a faithful reimplementation of the
   pre-vectorisation per-core python loop (``speedup_vs_legacy`` is the
   headline number).  Isolation keeps the measurement from being diluted
   by request arrival/completion events — benchmark (b) covers those.
b. **run_policy throughput** — simulated seconds and completed requests per
   wall second for one baseline run.
c. **Grid wall-clock** — the same spec grid executed serially and with
   ``--jobs N`` through :func:`repro.parallel.run_grid` (cache disabled),
   plus the measured speedup and the persistent pool's reuse stats.
   Parallel speedup is bounded by the machine: each section records the
   CPU count it ran with, ``--jobs`` auto-sizes to the machine by
   default, and the speedup gate is skipped (with a logged reason) when
   the requested jobs oversubscribe the available cores.

Regression gate (used by the CI perf-smoke job)::

    python benchmarks/bench_perf.py --check

fails (exit 1) when controller ticks/sec drops more than 30 % below the
committed baseline in ``benchmarks/bench_perf_baseline.json``, or when the
vectorised controller is slower than the legacy loop.  Machines differ, so
the committed baseline is deliberately conservative; the vs-legacy ratio is
measured in-process and is machine-independent.

Fleet scaling (ISSUE 5 + ISSUE 8)::

    python benchmarks/bench_perf.py --fleet

additionally times :class:`~repro.cluster.sim.ClusterSim` at 2/4/8 nodes
(per-node load held constant) and records simulated node-seconds per wall
second plus a scaling-efficiency ratio under the ``fleet`` key
(informational — absolute throughput is machine-dependent), and runs the
**batched-vs-scalar stepping A/B** under ``fleet_scaling``: the
tick-driven ``controller`` policy at 4/64/256 nodes in both stepping
modes plus 1024 nodes batched-only, at light load so the measurement
isolates stepping overhead rather than the shared per-request pipeline.
``--fleet --check`` gates the in-process 256-node speedup at
``FLEET_SPEEDUP_FLOOR`` (5x) and, when the committed baseline carries a
``fleet_scaling`` section, the absolute batched nodes/sec at 256 nodes
at the usual 30 % tolerance.

Observability overhead gate (ISSUE 4)::

    python benchmarks/bench_perf.py --obs-check

runs an in-process A/B of :func:`repro.experiments.runner.run_policy` —
best-of-3 with no observability at all versus best-of-3 with a metrics-only
:class:`~repro.obs.Observability` attached — and fails (exit 1) when the
attached run is more than ``OBS_OVERHEAD_TOLERANCE`` (2 %) slower.  Being
an A/B on the same process and machine, the ratio is machine-independent,
unlike the absolute ticks/sec baseline.  A fully-traced run is also timed
and reported (informational only; tracing is opt-in and allowed to cost).

Learned-coordinator overhead gate (ISSUE 10)::

    python benchmarks/bench_perf.py --hier

runs the paired A/B of a 64-node batched fleet under the learned budget
coordinator (frozen fleet agent, ``train=False``) versus the heuristic
:class:`~repro.cluster.powercap.PowerCapCoordinator`, and fails (exit 1)
when the learned decision path costs more than
``HIER_OVERHEAD_TOLERANCE`` (5 %).  Recorded under the ``hier`` key.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.core.thread_controller import ThreadController  # noqa: E402
from repro.experiments.runner import build_context, run_policy  # noqa: E402
from repro.parallel import RunSpec, run_grid  # noqa: E402
from repro.workload.apps import get_app  # noqa: E402
from repro.workload.trace import constant_trace  # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_perf.json")
DEFAULT_BASELINE = os.path.join(os.path.dirname(__file__), "bench_perf_baseline.json")

#: BENCH_perf.json schema version (documented in EXPERIMENTS.md).
#: Schema 2 (ISSUE 8): adds the ``fleet_scaling`` batched-vs-scalar
#: section, per-section ``cpus`` fields, and grid ``pool_stats``.
#: Schema 3 (ISSUE 9): adds the ``trace`` section — streaming-summarize
#: MB/s and compressed-vs-plain trace size ratios.
#: Schema 4 (ISSUE 10): adds the ``hier`` section — learned fleet-agent
#: decision overhead vs the heuristic coordinator at 64 batched nodes.
BENCH_SCHEMA = 4

#: --check fails when ticks/sec falls below (1 - this) * baseline.
REGRESSION_TOLERANCE = 0.30

#: --fleet --check fails when batched stepping is less than this many
#: times faster than scalar stepping at 256 nodes (in-process A/B, so
#: machine-independent like speedup_vs_legacy).
FLEET_SPEEDUP_FLOOR = 5.0

#: --check gates grid parallel speedup at this floor — but only when the
#: machine actually has more cores than grid jobs; an oversubscribed run
#: (jobs > cpus) skips the gate with a logged reason.
GRID_SPEEDUP_FLOOR = 1.5

#: --trace --check fails when the streaming fleet summarizer processes
#: fewer MB of plain JSONL per second than this.  Deliberately far below
#: any healthy machine (CI runners do 20-60 MB/s) — the gate exists to
#: catch an accidental return to per-event accumulation, which tanks
#: throughput by an order of magnitude at fleet scale.
TRACE_SUMMARIZE_MBPS_FLOOR = 5.0

#: --obs-check fails when the metrics-only observability A/B shows more
#: than this fractional slowdown over the no-observability run.
OBS_OVERHEAD_TOLERANCE = 0.02

#: --hier fails when the learned budget coordinator (frozen actor) costs
#: more than this fractional slowdown over the heuristic coordinator at
#: 64 batched nodes — the fleet agent's decision path (observe + actor
#: forward + apportion) must stay a rounding error next to simulation.
HIER_OVERHEAD_TOLERANCE = 0.05


class _LegacyThreadController(ThreadController):
    """The pre-vectorisation controller: per-core python loop every tick.

    Kept here (not in src/) purely as the comparison point for the
    ``speedup_vs_legacy`` measurement; behaviourally identical to the
    vectorised controller.
    """

    def scores(self, now):
        begins = self.server.begin_times()
        consumed = np.array(
            [0.0 if np.isnan(b) else (now - b) / self.sla for b in begins]
        )
        return consumed * self.scaling_coef + self.base_freq

    def tick(self):
        now = self.engine.now
        sc = self.scores(now)
        self.tick_count += 1
        workers = self.server.workers
        for i, w in enumerate(workers):
            s = sc[i]
            if s >= 1.0:
                w.core.set_frequency(self._turbo)
            else:
                w.core.set_frequency(self._fmin + self._fspan * s)


#: (BaseFreq, ScalingCoef) values cycled through during the tick benchmark
#: so scores — and therefore quantised DVFS levels — actually change.
_TICK_PARAM_CYCLE = [(0.2, 0.1), (0.5, 0.5), (0.8, 0.9), (0.35, 0.6)]

#: Direct tick() calls per simulated benchmark second (--duration scales it).
_TICKS_PER_DURATION_SECOND = 4000


def bench_controller_ticks(
    controller_cls, app_name: str = "xapian", num_cores: int = 4,
    duration: float = 20.0, rps: float = 150.0, seed: int = 3,
) -> dict:
    """Wall-clock the controller tick in isolation.

    Plays 2 simulated seconds of real load so some workers are mid-request
    (scores mix idle and busy cores), then stops the periodic task and
    times direct ``tick()`` calls.  The DRL parameters cycle every 16
    ticks so the score -> frequency mapping shifts and cores take real
    DVFS writes, as they do in a live run; both controller classes see the
    identical deterministic sequence.
    """
    app = get_app(app_name)
    warm_seconds = 2.0
    ctx = build_context(app, constant_trace(rps, warm_seconds), num_cores, seed)
    tc = controller_cls(ctx.engine, ctx.server)
    tc.set_params(0.5, 0.5)
    tc.start()
    ctx.source.start()
    ctx.engine.run_until(warm_seconds)
    tc.stop()
    ticks = max(1000, int(duration * _TICKS_PER_DURATION_SECOND))
    cycle = _TICK_PARAM_CYCLE
    t0 = time.perf_counter()
    for i in range(ticks):
        if i % 16 == 0:
            tc.set_params(*cycle[(i >> 4) % len(cycle)])
        tc.tick()
    wall = time.perf_counter() - t0
    return {
        "ticks": ticks,
        "wall_seconds": wall,
        "ticks_per_sec": ticks / wall,
    }


def bench_run_policy(
    app_name: str = "xapian", num_cores: int = 4,
    duration: float = 20.0, rps: float = 150.0, seed: int = 3,
) -> dict:
    """Throughput of one full baseline run (build + play + summarise)."""
    from repro.baselines.simple import MaxFrequencyPolicy

    app = get_app(app_name)
    trace = constant_trace(rps, duration)
    t0 = time.perf_counter()
    res = run_policy(
        lambda ctx: MaxFrequencyPolicy(ctx), app, trace, num_cores, seed=seed
    )
    wall = time.perf_counter() - t0
    return {
        "wall_seconds": wall,
        "sim_seconds": duration,
        "sim_seconds_per_wall_second": duration / wall,
        "requests": res.metrics.completed,
        "requests_per_wall_second": res.metrics.completed / wall,
    }


def bench_obs_overhead(
    app_name: str = "xapian", num_cores: int = 4,
    duration: float = 20.0, rps: float = 150.0, seed: int = 3,
    repeats: int = 5,
) -> dict:
    """In-process A/B of run_policy with and without observability attached.

    Uses the DRL evaluation path (``gemini`` would dodge the instrumented
    runtime, so this drives :class:`DeepPowerRuntime` directly) because that
    is where every obs branch added by ISSUE 4 lives.  One untimed warmup
    run absorbs import/allocator cold-start; then each of ``repeats``
    rounds times every arm back-to-back and the gate compares the **median
    of per-round ratios**: back-to-back runs see near-identical machine
    load, so paired ratios cancel the slow background drift a 2 % gate has
    no headroom for, and the median discards spike rounds in either
    direction.  The simulated duration is floored at 60 s so each arm runs
    long enough for the ratio to be meaningful.  The traced arm writes a
    real JSONL trace to a throwaway file and is reported but not gated.
    """
    import tempfile

    from repro.core import DeepPowerAgent, default_ddpg_config
    from repro.core.runtime import DeepPowerConfig, DeepPowerRuntime
    from repro.obs import Observability, TraceWriter
    from repro.sim import RngRegistry

    app = get_app(app_name)
    duration = max(duration, 60.0)
    trace = constant_trace(rps, duration)

    def _one(obs) -> float:
        agent = DeepPowerAgent(
            RngRegistry(seed).get("agent"),
            default_ddpg_config(warmup=8, batch_size=16),
        )

        def factory(ctx):
            return DeepPowerRuntime(
                ctx.engine, ctx.server, ctx.monitor, agent, DeepPowerConfig(),
                obs=obs,
            )

        t0 = time.perf_counter()
        run_policy(factory, app, trace, num_cores, seed=seed, obs=obs)
        return time.perf_counter() - t0

    def _timed(mk_obs) -> float:
        obs = mk_obs()
        try:
            return _one(obs)
        finally:
            if obs is not None:
                obs.close()

    tmp = tempfile.NamedTemporaryFile(suffix=".trace.jsonl", delete=False)
    tmp.close()
    arms = {
        "plain": lambda: None,
        "metrics_only": Observability,
        "traced": lambda: Observability(trace=TraceWriter(tmp.name)),
    }
    try:
        _timed(arms["plain"])  # warmup, discarded
        rounds = []
        for _ in range(repeats):
            rounds.append({name: _timed(mk) for name, mk in arms.items()})
    finally:
        os.unlink(tmp.name)

    def _median(vals):
        s = sorted(vals)
        mid = len(s) // 2
        return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])

    best = {name: min(r[name] for r in rounds) for name in arms}
    return {
        "sim_seconds": duration,
        "repeats": repeats,
        "plain_seconds": best["plain"],
        "metrics_only_seconds": best["metrics_only"],
        "traced_seconds": best["traced"],
        # Median of per-round paired ratios; > 1.0 means the attached run
        # was slower by that factor.
        "metrics_only_overhead": _median(
            [r["metrics_only"] / r["plain"] for r in rounds]
        ),
        "traced_overhead": _median([r["traced"] / r["plain"] for r in rounds]),
    }


def bench_hier_overhead(
    nodes: int = 64, cores_per_node: int = 2, duration: float = 6.0,
    load: float = 0.05, seed: int = 3, repeats: int = 3,
) -> dict:
    """In-process A/B of the learned budget coordinator vs the heuristic.

    Same paired-rounds protocol as :func:`bench_obs_overhead`: one untimed
    warmup, then each round runs the identical 64-node batched fleet under
    the heuristic :class:`~repro.cluster.powercap.PowerCapCoordinator` and
    under the learned coordinator with a frozen actor (``train=False`` —
    the decision path minus learner updates, which are a tunable training
    cost rather than fixed overhead), and the gate compares the median of
    per-round wall-clock ratios at ``HIER_OVERHEAD_TOLERANCE`` (5 %).
    Light per-worker load and the cheap tick-driven ``controller`` policy
    keep the shared pipeline thin, so the ratio actually stresses the
    coordinator path instead of burying it.
    """
    from repro.cluster import ClusterConfig, ClusterSim, fleet_power_budget
    from repro.hier import HierConfig

    app = get_app("xapian")
    trace = constant_trace(
        app.rps_for_load(load, nodes * cores_per_node), duration
    )
    budget = fleet_power_budget(nodes, cores_per_node, fraction=0.7)
    hier = HierConfig(train=False)

    def _one(learned: bool) -> tuple:
        config = ClusterConfig(
            app="xapian", num_nodes=nodes, cores_per_node=cores_per_node,
            policy="controller", routing="jsq", seed=seed,
            power_cap_watts=budget, stepping="batched",
            hier=hier if learned else None,
        )
        t0 = time.perf_counter()
        metrics = ClusterSim(config, trace).run()
        return time.perf_counter() - t0, metrics

    _one(True)  # warmup, discarded
    rounds = []
    decisions = 0
    for _ in range(repeats):
        heuristic_s, _m = _one(False)
        learned_s, metrics = _one(True)
        decisions = metrics.hier_decisions
        rounds.append({"heuristic": heuristic_s, "learned": learned_s})
    if decisions == 0:  # pragma: no cover - sanity guard
        raise AssertionError("hier bench made no coordinator decisions")

    def _median(vals):
        s = sorted(vals)
        mid = len(s) // 2
        return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])

    return {
        "nodes": nodes,
        "cores_per_node": cores_per_node,
        "sim_seconds": duration,
        "repeats": repeats,
        "decisions": decisions,
        "heuristic_seconds": min(r["heuristic"] for r in rounds),
        "learned_seconds": min(r["learned"] for r in rounds),
        # Median of per-round paired ratios; > 1.0 means the learned
        # coordinator was slower by that factor.
        "hier_overhead": _median(
            [r["learned"] / r["heuristic"] for r in rounds]
        ),
    }


def bench_fleet(
    node_counts=(2, 4, 8), cores_per_node: int = 2, duration: float = 20.0,
    rps_per_worker: float = 60.0, seed: int = 3,
) -> dict:
    """Nodes-per-second scaling of :class:`~repro.cluster.sim.ClusterSim`.

    One shared event heap serves the whole fleet, so the cost of a fleet
    step grows with total event volume; this measures how simulated
    node-seconds per wall second (``nodes * sim_duration / wall``) scale as
    the fleet grows with per-node load held constant.  Informational — no
    regression gate, machines differ too much — but recorded in
    BENCH_perf.json so scaling cliffs show up in CI artifacts.
    """
    from repro.cluster import ClusterConfig, ClusterSim

    rows = []
    for n in node_counts:
        trace = constant_trace(rps_per_worker * n * cores_per_node, duration)
        config = ClusterConfig(
            app="xapian", num_nodes=n, cores_per_node=cores_per_node,
            policy="baseline", routing="round-robin", seed=seed,
        )
        t0 = time.perf_counter()
        metrics = ClusterSim(config, trace).run()
        wall = time.perf_counter() - t0
        rows.append({
            "nodes": n,
            "cores_per_node": cores_per_node,
            "sim_seconds": duration,
            "wall_seconds": wall,
            "requests": metrics.fleet.completed,
            "node_seconds_per_wall_second": n * duration / wall,
        })
    base = rows[0]["node_seconds_per_wall_second"]
    return {
        "cpus": os.cpu_count(),
        "rows": rows,
        # throughput at the largest fleet relative to the smallest; 1.0 =
        # perfectly linear scaling in node count.
        "scaling_efficiency": rows[-1]["node_seconds_per_wall_second"] / base,
    }


def bench_fleet_scaling(
    ab_counts=(4, 64, 256), batched_only=(1024,), cores_per_node: int = 2,
    duration: float = 4.0, load: float = 0.05, seed: int = 3,
) -> dict:
    """Batched vs scalar fleet stepping A/B (ISSUE 8 tentpole).

    Runs the tick-driven ``controller`` policy (a fixed-parameter
    :class:`~repro.core.thread_controller.ThreadController` per node, the
    shape whose per-tick python dispatch dominated large fleets) in both
    stepping modes at each A/B node count, then batched-only at fleet
    sizes where scalar would take minutes.  Light per-worker load so the
    measurement isolates stepping overhead rather than the shared
    per-request pipeline, which both modes pay identically.  The metrics
    of every A/B pair are asserted identical — the speedup is only
    meaningful because the two modes simulate the same world.
    """
    from repro.cluster import ClusterConfig, ClusterSim

    app = get_app("xapian")
    rows = []
    for n in tuple(ab_counts) + tuple(batched_only):
        total_cores = n * cores_per_node
        trace = constant_trace(app.rps_for_load(load, total_cores), duration)
        row = {"nodes": n, "sim_seconds": duration}
        metrics_json = {}
        modes = ("scalar", "batched") if n in ab_counts else ("batched",)
        for stepping in modes:
            config = ClusterConfig(
                app="xapian", num_nodes=n, cores_per_node=cores_per_node,
                policy="controller", routing="jsq", seed=seed,
                stepping=stepping,
            )
            t0 = time.perf_counter()
            metrics = ClusterSim(config, trace).run()
            wall = time.perf_counter() - t0
            metrics_json[stepping] = json.dumps(
                metrics.as_dict(), sort_keys=True
            )
            row[f"{stepping}_wall_seconds"] = wall
            row[f"{stepping}_nodes_per_sec"] = n * duration / wall
        if len(modes) == 2:
            if metrics_json["scalar"] != metrics_json["batched"]:
                raise AssertionError(
                    f"batched stepping diverged from scalar at {n} nodes"
                )
            row["speedup"] = (
                row["scalar_wall_seconds"] / row["batched_wall_seconds"]
            )
        rows.append(row)
    ab = max((r for r in rows if "speedup" in r), key=lambda r: r["nodes"])
    return {
        "cpus": os.cpu_count(),
        "policy": "controller",
        "routing": "jsq",
        "cores_per_node": cores_per_node,
        "load": load,
        "rows": rows,
        # headline numbers: the in-process A/B at the largest paired fleet
        # (machine-independent) and its absolute batched throughput (for
        # the baseline floor check).
        "ab_nodes": ab["nodes"],
        "ab_speedup": ab["speedup"],
        "ab_batched_nodes_per_sec": ab["batched_nodes_per_sec"],
    }


def _write_synthetic_fleet_trace(path: str, nodes: int, windows: int,
                                 compress=None, segment_events=None) -> None:
    """Emit a deterministic fleet-shaped trace (node/powercap windows)."""
    from repro.obs import TraceWriter

    with TraceWriter(
        path, meta={"kind": "bench-trace", "num_nodes": nodes},
        compress=compress, segment_events=segment_events,
    ) as w:
        w.emit("fleet-start", t=0.0, num_nodes=nodes)
        for win in range(windows):
            t = float(win + 1)
            for node in range(nodes):
                # Varied but deterministic floats so lines are full-width
                # (repr floats dominate real trace bytes too).
                w.emit(
                    "node-window", t=t, node=node,
                    power_w=15.0 + 0.125 * ((node * 7 + win) % 40),
                    queue_len=(node + win) % 5,
                    busy_workers=1 + (win % 2),
                    routed=win * 70 + node,
                    completed=win * 69 + node,
                    timeouts=win % 3,
                    ceiling=3.0,
                )
            w.emit(
                "powercap-window", t=t,
                total_w=nodes * (15.0 + 0.25 * (win % 8)),
                budget_w=nodes * 18.0, throttled=win % 16 == 0,
            )
        for node in range(nodes):
            w.emit(
                "node-summary", t=float(windows), node=node,
                routed=windows * 70 + node, availability=1.0, downtime=0.0,
                metrics={"completed": windows * 69, "timeouts": 3},
            )
        w.emit("fleet-summary", t=float(windows),
               metrics={"completed": nodes * windows * 69})


def bench_trace(nodes: int = 32, windows: int = 500, repeats: int = 3) -> dict:
    """Streaming-summarize throughput and compressed trace size ratios.

    Writes one deterministic fleet-shaped trace (``nodes`` node-windows
    per simulated second for ``windows`` seconds, plus powercap windows
    and summaries), then measures (a) how many MB of plain JSONL
    :func:`~repro.obs.summarize_fleet_trace` processes per wall second
    (best of ``repeats``) and (b) the plain-vs-compressed size ratio of
    the same event stream for each available codec.  ``--trace --check``
    gates (a) at ``TRACE_SUMMARIZE_MBPS_FLOOR``; the ratios are
    informational.
    """
    import tempfile

    from repro.obs import summarize_fleet_trace, trace_codecs

    with tempfile.TemporaryDirectory(prefix="bench-trace-") as tmp:
        plain = os.path.join(tmp, "bench.trace.jsonl")
        _write_synthetic_fleet_trace(plain, nodes, windows)
        plain_bytes = os.path.getsize(plain)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            summary = summarize_fleet_trace(plain)
            best = min(best, time.perf_counter() - t0)
        if len(summary.nodes) != nodes:  # pragma: no cover - sanity guard
            raise AssertionError("bench trace summarized wrong node count")
        result = {
            "nodes": nodes,
            "windows": windows,
            "events": nodes * windows + windows + nodes + 3,
            "plain_bytes": plain_bytes,
            "summarize_seconds": best,
            "summarize_mb_per_sec": plain_bytes / 1e6 / best,
            "codecs": {},
        }
        for codec in trace_codecs():
            out = os.path.join(tmp, f"bench.{codec}.trace.jsonl")
            t0 = time.perf_counter()
            _write_synthetic_fleet_trace(out, nodes, windows, compress=codec)
            write_wall = time.perf_counter() - t0
            size = os.path.getsize(out)
            result["codecs"][codec] = {
                "bytes": size,
                "ratio_vs_plain": plain_bytes / size,
                "write_seconds": write_wall,
            }
        return result


def _grid_specs(apps, num_cores: int, duration: float, seed: int):
    specs = []
    for name in apps:
        # gemini ticks a per-core controller every 1 ms, making each cell
        # representative of real experiment cost (baseline cells are so
        # cheap that pool start-up would dominate the comparison).
        for load_rps in (80.0, 150.0, 220.0):
            specs.append(
                RunSpec(
                    app=name,
                    policy="gemini",
                    trace=constant_trace(load_rps, duration),
                    num_cores=num_cores,
                    seed=seed,
                    label="bench-perf",
                )
            )
    return specs


def bench_grid(apps, jobs, num_cores: int = 4, duration: float = 20.0,
               seed: int = 3) -> dict:
    """Wall-clock the same grid serially and fanned over ``jobs`` workers.

    ``jobs=None`` auto-sizes to ``min(4, cpu_count)`` so the benchmark
    never oversubscribes by default.  An explicit ``jobs`` larger than the
    machine still runs (the wall-clock numbers are real), but the section
    marks itself oversubscribed and records why the speedup gate does not
    apply: N workers time-slicing fewer cores measure scheduler fairness,
    not parallel speedup.
    """
    cpus = os.cpu_count() or 1
    requested = jobs
    if jobs is None:
        jobs = min(4, cpus)
    jobs = max(1, int(jobs))
    specs = _grid_specs(apps, num_cores, duration, seed)

    t0 = time.perf_counter()
    serial = run_grid(specs, jobs=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = run_grid(specs, jobs=jobs)
    parallel_s = time.perf_counter() - t0

    for a, b in zip(serial, parallel):
        if a.unwrap() != b.unwrap():  # pragma: no cover - determinism guard
            raise AssertionError("parallel grid diverged from serial grid")
    oversubscribed = jobs > cpus
    if oversubscribed:
        gate = (
            f"skipped: jobs={jobs} oversubscribes {cpus} cpu(s); "
            f"wall-clock recorded, speedup not gated"
        )
    elif jobs == 1:
        gate = "skipped: jobs=1 is the serial path; nothing to compare"
    else:
        gate = "ok"
    stats = next((o.pool_stats for o in parallel if o.pool_stats), None)
    return {
        "cells": len(specs),
        "jobs_requested": requested,
        "jobs": jobs,
        "cpus": cpus,
        "oversubscribed": oversubscribed,
        "speedup_gate": gate,
        "serial_seconds": serial_s,
        "parallel_seconds": parallel_s,
        "speedup": serial_s / parallel_s,
        "pool_stats": stats,
    }


def run_benchmarks(args) -> dict:
    apps = [a.strip() for a in args.grid_apps.split(",") if a.strip()]
    print(f"[bench_perf] controller ticks ({args.duration:.0f} sim-s) ...")
    vec = bench_controller_ticks(ThreadController, duration=args.duration)
    legacy = bench_controller_ticks(_LegacyThreadController, duration=args.duration)
    print(
        f"  vectorised {vec['ticks_per_sec']:,.0f} ticks/s, "
        f"legacy {legacy['ticks_per_sec']:,.0f} ticks/s "
        f"({vec['ticks_per_sec'] / legacy['ticks_per_sec']:.2f}x)"
    )
    print("[bench_perf] run_policy throughput ...")
    rp = bench_run_policy(duration=args.duration)
    print(f"  {rp['sim_seconds_per_wall_second']:.1f} sim-s/s")
    print(f"[bench_perf] grid of {3 * len(apps)} cells, jobs={args.jobs or 'auto'} ...")
    grid = bench_grid(apps, args.jobs, duration=args.duration)
    print(
        f"  serial {grid['serial_seconds']:.2f}s, "
        f"jobs={grid['jobs']} {grid['parallel_seconds']:.2f}s "
        f"({grid['speedup']:.2f}x on {grid['cpus']} cpu(s))"
    )
    if grid["speedup_gate"] != "ok":
        print(f"  speedup gate {grid['speedup_gate']}")
    if grid["pool_stats"]:
        ps = grid["pool_stats"]
        print(
            f"  pool: {ps['forks']} fork(s), {ps['map_calls']} map(s), "
            f"{ps['tasks_per_worker']:.1f} tasks/worker, "
            f"chunksize {ps['chunksize']}"
        )
    result = {
        "schema": BENCH_SCHEMA,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "controller": {
            **{f"vectorized_{k}": v for k, v in vec.items()},
            **{f"legacy_{k}": v for k, v in legacy.items()},
            "ticks_per_sec": vec["ticks_per_sec"],
            "speedup_vs_legacy": vec["ticks_per_sec"] / legacy["ticks_per_sec"],
        },
        "run_policy": rp,
        "grid": grid,
    }
    if args.fleet:
        print("[bench_perf] fleet nodes-per-second scaling ...")
        fleet = bench_fleet(duration=args.duration)
        for row in fleet["rows"]:
            print(
                f"  {row['nodes']} nodes: {row['wall_seconds']:.2f}s wall, "
                f"{row['node_seconds_per_wall_second']:.1f} node-s/s"
            )
        print(f"  scaling efficiency {fleet['scaling_efficiency']:.2f}")
        result["fleet"] = fleet
        print("[bench_perf] batched vs scalar stepping A/B ...")
        scaling = bench_fleet_scaling()
        for row in scaling["rows"]:
            parts = [f"  {row['nodes']} nodes:"]
            if "scalar_nodes_per_sec" in row:
                parts.append(f"scalar {row['scalar_nodes_per_sec']:.0f} node-s/s,")
            parts.append(f"batched {row['batched_nodes_per_sec']:.0f} node-s/s")
            if "speedup" in row:
                parts.append(f"({row['speedup']:.2f}x)")
            print(" ".join(parts))
        print(
            f"  speedup at {scaling['ab_nodes']} nodes: "
            f"{scaling['ab_speedup']:.2f}x"
        )
        result["fleet_scaling"] = scaling
    if args.trace:
        print("[bench_perf] streaming trace summarize + compression ratios ...")
        tr = bench_trace()
        print(
            f"  {tr['events']:,} events, {tr['plain_bytes'] / 1e6:.1f} MB "
            f"plain: summarize {tr['summarize_mb_per_sec']:.1f} MB/s"
        )
        for codec, row in tr["codecs"].items():
            print(
                f"  {codec}: {row['bytes'] / 1e6:.2f} MB "
                f"({row['ratio_vs_plain']:.1f}x smaller)"
            )
        result["trace"] = tr
    if args.hier:
        print("[bench_perf] learned-coordinator overhead A/B at 64 nodes ...")
        hier = bench_hier_overhead()
        print(
            f"  heuristic {hier['heuristic_seconds']:.2f}s, learned "
            f"{hier['learned_seconds']:.2f}s "
            f"({(hier['hier_overhead'] - 1.0) * 100:+.1f}%, "
            f"{hier['decisions']} decisions)"
        )
        result["hier"] = hier
    if args.obs_check:
        print("[bench_perf] observability overhead A/B (median of 5 paired rounds) ...")
        obs = bench_obs_overhead(duration=args.duration)
        print(
            f"  plain {obs['plain_seconds']:.2f}s, metrics-only "
            f"{obs['metrics_only_seconds']:.2f}s "
            f"({(obs['metrics_only_overhead'] - 1.0) * 100:+.1f}%), traced "
            f"{obs['traced_seconds']:.2f}s "
            f"({(obs['traced_overhead'] - 1.0) * 100:+.1f}%)"
        )
        result["obs"] = obs
    return result


def check_obs_overhead(result: dict) -> int:
    """Gate the in-process observability A/B; returns a process exit code."""
    overhead = result["obs"]["metrics_only_overhead"]
    ceiling = 1.0 + OBS_OVERHEAD_TOLERANCE
    if overhead > ceiling:
        print(
            f"[bench_perf] REGRESSION: metrics-only observability costs "
            f"{(overhead - 1.0) * 100:.1f}% "
            f"(> {OBS_OVERHEAD_TOLERANCE * 100:.0f}% tolerance)",
            file=sys.stderr,
        )
        return 1
    print(
        f"[bench_perf] obs overhead {(overhead - 1.0) * 100:+.1f}% "
        f"(tolerance {OBS_OVERHEAD_TOLERANCE * 100:.0f}%): OK"
    )
    return 0


def check_hier_overhead(result: dict) -> int:
    """Gate the learned-vs-heuristic coordinator A/B; returns an exit code."""
    overhead = result["hier"]["hier_overhead"]
    ceiling = 1.0 + HIER_OVERHEAD_TOLERANCE
    if overhead > ceiling:
        print(
            f"[bench_perf] REGRESSION: learned coordinator costs "
            f"{(overhead - 1.0) * 100:.1f}% over the heuristic at "
            f"{result['hier']['nodes']} nodes "
            f"(> {HIER_OVERHEAD_TOLERANCE * 100:.0f}% tolerance)",
            file=sys.stderr,
        )
        return 1
    print(
        f"[bench_perf] hier overhead {(overhead - 1.0) * 100:+.1f}% "
        f"(tolerance {HIER_OVERHEAD_TOLERANCE * 100:.0f}%): OK"
    )
    return 0


def check_regression(result: dict, baseline_path: str) -> int:
    """Compare against the committed baseline; returns a process exit code."""
    failures = []
    ratio = result["controller"]["speedup_vs_legacy"]
    if ratio < 1.0:
        failures.append(
            f"vectorised controller slower than legacy loop ({ratio:.2f}x)"
        )
    if os.path.exists(baseline_path):
        with open(baseline_path) as f:
            baseline = json.load(f)
        base_tps = baseline["controller"]["ticks_per_sec"]
        tps = result["controller"]["ticks_per_sec"]
        floor = (1.0 - REGRESSION_TOLERANCE) * base_tps
        if tps < floor:
            failures.append(
                f"controller ticks/sec regressed: {tps:,.0f} < "
                f"{floor:,.0f} (70% of baseline {base_tps:,.0f})"
            )
        else:
            print(
                f"[bench_perf] ticks/sec {tps:,.0f} vs baseline "
                f"{base_tps:,.0f} (floor {floor:,.0f}): OK"
            )
    else:
        baseline = None
        print(f"[bench_perf] no baseline at {baseline_path}; skipping floor check")
    grid = result["grid"]
    if grid["speedup_gate"] == "ok":
        if grid["speedup"] < GRID_SPEEDUP_FLOOR:
            failures.append(
                f"grid speedup {grid['speedup']:.2f}x below "
                f"{GRID_SPEEDUP_FLOOR}x floor at jobs={grid['jobs']} "
                f"on {grid['cpus']} cpu(s)"
            )
        else:
            print(f"[bench_perf] grid speedup {grid['speedup']:.2f}x: OK")
    else:
        print(f"[bench_perf] grid speedup gate {grid['speedup_gate']}")
    scaling = result.get("fleet_scaling")
    if scaling is not None:
        if scaling["ab_speedup"] < FLEET_SPEEDUP_FLOOR:
            failures.append(
                f"batched stepping only {scaling['ab_speedup']:.2f}x over "
                f"scalar at {scaling['ab_nodes']} nodes "
                f"(floor {FLEET_SPEEDUP_FLOOR}x)"
            )
        else:
            print(
                f"[bench_perf] batched stepping "
                f"{scaling['ab_speedup']:.2f}x at {scaling['ab_nodes']} "
                f"nodes: OK"
            )
        base_scaling = (baseline or {}).get("fleet_scaling")
        if base_scaling is not None:
            base_nps = base_scaling["ab_batched_nodes_per_sec"]
            nps = scaling["ab_batched_nodes_per_sec"]
            floor = (1.0 - REGRESSION_TOLERANCE) * base_nps
            if nps < floor:
                failures.append(
                    f"batched nodes/sec regressed: {nps:,.0f} < "
                    f"{floor:,.0f} (70% of baseline {base_nps:,.0f})"
                )
            else:
                print(
                    f"[bench_perf] batched nodes/sec {nps:,.0f} vs baseline "
                    f"{base_nps:,.0f} (floor {floor:,.0f}): OK"
                )
    trace = result.get("trace")
    if trace is not None:
        mbps = trace["summarize_mb_per_sec"]
        if mbps < TRACE_SUMMARIZE_MBPS_FLOOR:
            failures.append(
                f"trace summarize throughput {mbps:.1f} MB/s below "
                f"{TRACE_SUMMARIZE_MBPS_FLOOR} MB/s floor"
            )
        else:
            print(f"[bench_perf] trace summarize {mbps:.1f} MB/s: OK")
    if failures:
        for msg in failures:
            print(f"[bench_perf] REGRESSION: {msg}", file=sys.stderr)
        return 1
    print(f"[bench_perf] speedup_vs_legacy {ratio:.2f}x: OK")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes for the grid comparison "
                        "(default: min(4, cpu count) so the benchmark never "
                        "oversubscribes by default)")
    p.add_argument("--grid-apps", default="xapian,moses",
                   help="comma-separated apps for the grid benchmark")
    p.add_argument("--duration", type=float, default=20.0,
                   help="simulated seconds per benchmark run")
    p.add_argument("--out", default=DEFAULT_OUT,
                   help="where to write the JSON report")
    p.add_argument("--check", action="store_true",
                   help="exit 1 on perf regression vs the committed baseline")
    p.add_argument("--fleet", action="store_true",
                   help="also measure cluster-sim nodes-per-second scaling "
                        "(2/4/8 nodes) and the batched-vs-scalar stepping "
                        "A/B up to 1024 nodes (recorded in the JSON report)")
    p.add_argument("--trace", action="store_true",
                   help="also benchmark the streaming trace summarizer "
                        "(MB/s over a synthetic fleet trace) and the "
                        "compressed-vs-plain size ratio per codec; with "
                        f"--check, gate MB/s at {TRACE_SUMMARIZE_MBPS_FLOOR}")
    p.add_argument("--hier", action="store_true",
                   help="also run the learned-vs-heuristic budget "
                        "coordinator A/B at 64 batched nodes; exit 1 when "
                        "the frozen fleet agent's decision path costs more "
                        f"than {HIER_OVERHEAD_TOLERANCE * 100:.0f}%%")
    p.add_argument("--obs-check", action="store_true",
                   help="also run the observability A/B; exit 1 when a "
                        "metrics-only handle costs more than "
                        f"{OBS_OVERHEAD_TOLERANCE * 100:.0f}%%")
    p.add_argument("--baseline", default=DEFAULT_BASELINE,
                   help="baseline JSON for --check")
    args = p.parse_args(argv)

    result = run_benchmarks(args)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"[bench_perf] wrote {args.out}")

    code = 0
    if args.check:
        code = check_regression(result, args.baseline)
    if args.obs_check:
        code = max(code, check_obs_overhead(result))
    if args.hier:
        code = max(code, check_hier_overhead(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
