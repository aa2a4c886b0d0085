"""Batched fleet stepping: bitwise parity with the scalar path (ISSUE 8).

The load-bearing guarantee of the cross-node vectorisation: with
``stepping="batched"``, :class:`~repro.cluster.sim.ClusterSim` produces
**byte-identical** node-tagged traces and **identical** FleetMetrics to
the per-node scalar path, on every configuration — plain fleets, chaos
fleets mid-fault, power-capped fleets (the cap's stacked clamp and the
stacked fault-injector draws, alone and mixed), and long soak-style runs — at
fleet sizes on both sides of the batching cutover.

(The soak *experiment* itself — ``repro.experiments.soak`` — drives
single-node :func:`run_policy` and never touches ClusterSim, so its
parity coverage here is the long-duration chaos + power-cap fleet
config, which exercises the same code paths a fleet soak would.)
"""

import json

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterSim,
    FleetSpec,
    fleet_power_budget,
)
from repro.cluster.batch import SCALAR_BATCH_CUTOFF, FleetBatch
from repro.cpu.core import Core
from repro.experiments.hier import hier_config
from repro.faults import (
    ActuatorFaults,
    FaultEvent,
    FaultPlan,
    FleetFaultPlan,
    standard_chaos_plan,
)
from repro.obs import Observability
from repro.parallel import content_key
from repro.workload.apps import get_app
from repro.workload.trace import constant_trace

APP = "xapian"


def _run(tmp_path, stepping, nodes, cores, duration, load, **overrides):
    """One fleet run; returns (metrics-as-sorted-json, trace bytes)."""
    rps = get_app(APP).rps_for_load(load, nodes * cores)
    trace = constant_trace(rps, duration)
    config = ClusterConfig(
        app=APP, num_nodes=nodes, cores_per_node=cores, seed=11,
        stepping=stepping, **overrides,
    )
    path = tmp_path / f"{stepping}.trace.jsonl"
    obs = Observability.from_paths(trace_out=str(path), meta={"kind": "parity"})
    try:
        metrics = ClusterSim(config, trace, obs=obs).run()
    finally:
        obs.close()
    return json.dumps(metrics.as_dict(), sort_keys=True), path.read_bytes()


def _assert_parity(tmp_path, nodes=4, cores=2, duration=3.0, load=0.5,
                   **overrides):
    m_scalar, t_scalar = _run(
        tmp_path, "scalar", nodes, cores, duration, load, **overrides
    )
    m_batched, t_batched = _run(
        tmp_path, "batched", nodes, cores, duration, load, **overrides
    )
    assert m_scalar == m_batched
    assert t_scalar == t_batched


def _chaos(nodes, duration, intensity=0.6):
    return standard_chaos_plan(intensity, nodes, duration, seed=5)


class TestParitySmallFleet:
    """4 nodes — below the auto cutover, forced into each mode."""

    def test_controller_jsq(self, tmp_path):
        _assert_parity(tmp_path, policy="controller", routing="jsq")

    def test_controller_round_robin(self, tmp_path):
        _assert_parity(tmp_path, policy="controller", routing="round-robin")

    def test_retail_jsq(self, tmp_path):
        _assert_parity(tmp_path, policy="retail", routing="jsq")

    def test_controller_powercap(self, tmp_path):
        _assert_parity(
            tmp_path, policy="controller", routing="power-aware",
            power_cap_watts=fleet_power_budget(4, 2, fraction=0.5),
        )

    def test_controller_chaos(self, tmp_path):
        _assert_parity(
            tmp_path, policy="controller", routing="jsq",
            fault_plan=_chaos(4, 3.0),
        )

    def test_deeppower(self, tmp_path):
        # DRL policy: live tick_count sync feeds window observations.
        _assert_parity(tmp_path, policy="deeppower", routing="jsq")

    def test_soak_style_chaos_powercap(self, tmp_path):
        # Longest config in the matrix: faults + cap + degraded routing,
        # the fleet analogue of a soak run.
        _assert_parity(
            tmp_path, duration=8.0, policy="retail", routing="power-aware",
            power_cap_watts=fleet_power_budget(4, 2, fraction=0.5),
            fault_plan=_chaos(4, 8.0),
        )


class TestParityLargeFleet:
    """64 nodes — above the cutover, where auto already batches."""

    def test_controller_jsq(self, tmp_path):
        _assert_parity(
            tmp_path, nodes=64, duration=2.0, load=0.3,
            policy="controller", routing="jsq",
        )

    def test_controller_chaos_powercap(self, tmp_path):
        _assert_parity(
            tmp_path, nodes=64, duration=2.0, load=0.3,
            policy="controller", routing="power-aware",
            power_cap_watts=fleet_power_budget(64, 2, fraction=0.5),
            fault_plan=_chaos(64, 2.0),
        )


class TestParityCapLane:
    """Cap ceilings and fault injectors both ride the stacked tick (one
    clamp, one stacked fault draw).  A 0.5 budget fraction only revokes
    turbo; 0.3 also throttles into the sustained range."""

    def test_controller_powercap_at_peak(self, tmp_path):
        _assert_parity(
            tmp_path, nodes=64, duration=2.0, load=0.6,
            policy="controller", routing="jsq",
            power_cap_watts=fleet_power_budget(64, 2, fraction=0.5),
        )

    def test_deeppower_powercap(self, tmp_path):
        # Live tick counts feed DRL steps while the cap throttles.
        _assert_parity(
            tmp_path, policy="deeppower", routing="jsq",
            power_cap_watts=fleet_power_budget(4, 2, fraction=0.3),
        )

    def test_mixed_cap_and_injector_rows(self, tmp_path):
        # Cap on every node, DVFS faults (failed and delayed writes, an
        # offlined core) on the even nodes only: injector and plain rows
        # in one tick.
        plans = tuple(
            (i, FaultPlan(
                seed=100 + i, dvfs_fail_prob=0.05, dvfs_delay_prob=0.05,
                events=(FaultEvent(1.0, "actuator.offline", 0.5, target=1),),
            ))
            for i in range(0, 16, 2)
        )
        _assert_parity(
            tmp_path, nodes=16, duration=3.0, load=0.6,
            policy="controller", routing="jsq",
            power_cap_watts=fleet_power_budget(16, 2, fraction=0.3),
            fault_plan=FleetFaultPlan(node_plans=plans),
        )

    def _capped_sim(self, nodes=4, fault_plan=None):
        rps = get_app(APP).rps_for_load(0.6, nodes * 2)
        config = ClusterConfig(
            app=APP, num_nodes=nodes, cores_per_node=2, seed=11,
            stepping="batched", policy="controller", routing="jsq",
            power_cap_watts=fleet_power_budget(nodes, 2, fraction=0.3),
            fault_plan=fault_plan,
        )
        return ClusterSim(config, constant_trace(rps, 2.0))

    def test_capped_tick_writes_only_changed_levels(self, monkeypatch):
        # No-op DVFS writes cost nothing in state but plenty in time: under
        # a cap every write the batched fleet makes must switch a level.
        writes = []
        set_frequency = Core.set_frequency

        def counted(core, freq, *, quantize=True):
            writes.append(core)
            return set_frequency(core, freq, quantize=quantize)

        monkeypatch.setattr(Core, "set_frequency", counted)
        sim = self._capped_sim(nodes=16)
        sim.run()
        assert sim.coordinator.throttled_windows > 0
        assert len(writes) == sum(n.cpu.total_switches() for n in sim.nodes)

    def test_injector_lane_sees_raw_requests(self, monkeypatch):
        # Every DVFS write on node 1 is delayed, so each one the stacked
        # tick vets lands later carrying the request the injector saw.
        plan = FleetFaultPlan(node_plans=(
            (1, FaultPlan(seed=7, dvfs_delay_prob=1.0)),
        ))
        sim = self._capped_sim(fault_plan=plan)
        landed = []
        apply = ActuatorFaults.apply

        def record(act, core, freq, quantize=True):
            applied = apply(act, core, freq, quantize=quantize)
            landed.append((freq > core.ceiling, applied <= core.ceiling))
            return applied

        monkeypatch.setattr(ActuatorFaults, "apply", record)
        sim.run()
        assert not hasattr(sim.batch, "_ov_rows")
        # The injector row rides the stacked tick with the capped rows.
        assert sim.batch._acts == [sim.lifecycle.harnesses[0].actuator]
        assert sim.nodes[1].cpu.cores[0].actuator is sim.batch._acts[0]
        # The injector gets the controller's raw request; the core clamps.
        assert any(above for above, _ in landed)
        assert all(clamped for _, clamped in landed)

    def test_foreign_actuator_keeps_per_node_ticks(self, monkeypatch):
        # Only ActuatorFaults can be stacked; any other actuator leaves
        # every controller on its per-node tick, where it vets raw writes.
        adopted = []
        adopt = FleetBatch.adopt_controllers

        def record(batch, *args, **kw):
            adopted.append(adopt(batch, *args, **kw))
            return adopted[-1]

        monkeypatch.setattr(FleetBatch, "adopt_controllers", record)
        sim = self._capped_sim()
        seen = []

        class Recorder:
            def refuse(self, core, freq):
                seen.append(freq > core.ceiling)
                return False

        sim.nodes[1].cpu.cores[0].actuator = Recorder()
        sim.run()
        assert adopted == [False]
        assert any(seen)


class TestParityBenchmarkMix:
    """The benchmark's ``fleet-chaos-hier`` feature mix in one fleet: a
    learning hier coordinator over a 0.7 cap, power-aware routing, and
    the standard chaos plan with a DVFS injector on every node."""

    def test_chaos_hier_capped_power_aware(self, tmp_path):
        _assert_parity(
            tmp_path, nodes=16, duration=4.0, load=0.35,
            policy="controller", routing="power-aware",
            power_cap_watts=fleet_power_budget(16, 2, fraction=0.7),
            fault_plan=standard_chaos_plan(1.0, 16, 4.0, seed=5),
            hier=hier_config(),
        )


class TestCutover:
    def _sim(self, stepping, nodes):
        rps = get_app(APP).rps_for_load(0.3, nodes * 2)
        config = ClusterConfig(
            app=APP, num_nodes=nodes, cores_per_node=2,
            policy="controller", routing="jsq", seed=11, stepping=stepping,
        )
        return ClusterSim(config, constant_trace(rps, 1.0))

    def test_auto_below_cutoff_is_scalar(self):
        sim = self._sim("auto", SCALAR_BATCH_CUTOFF - 1)
        assert sim.batch is None

    def test_auto_at_cutoff_is_batched(self):
        sim = self._sim("auto", SCALAR_BATCH_CUTOFF)
        assert isinstance(sim.batch, FleetBatch)

    def test_forced_modes_override_auto(self):
        assert self._sim("batched", 2).batch is not None
        assert self._sim("scalar", SCALAR_BATCH_CUTOFF).batch is None

    def test_scalar_fallback_runs(self):
        # The fallback below the cutoff is not dead code: it simulates.
        sim = self._sim("auto", 2)
        assert sim.batch is None
        metrics = sim.run()
        assert metrics.fleet.completed > 0

    def test_invalid_stepping_rejected(self):
        with pytest.raises(ValueError, match="stepping"):
            ClusterConfig(app=APP, num_nodes=2, cores_per_node=2,
                          stepping="vector")


class TestSpecCacheKey:
    def test_stepping_excluded_from_cache_payload(self):
        # A cached scalar result must satisfy a batched request and vice
        # versa — the two modes are bitwise identical by construction.
        kw = dict(
            app=APP, policy="controller", trace=constant_trace(60.0, 1.0),
            num_nodes=4, cores_per_node=2, seed=11, routing="jsq",
        )
        keys = {
            content_key(FleetSpec(stepping=s, **kw).cache_payload())
            for s in ("auto", "batched", "scalar")
        }
        assert len(keys) == 1
