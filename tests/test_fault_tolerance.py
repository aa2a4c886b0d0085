"""Tests for the fault-injection subsystem and the runtime watchdog."""

import math

import numpy as np
import pytest

from repro.cluster.batch import FleetBatch
from repro.cluster.node import ClusterNode
from repro.core import DeepPowerAgent, DeepPowerConfig, DeepPowerRuntime, default_ddpg_config
from repro.core.thread_controller import ThreadController
from repro.cpu import Cpu
from repro.cpu.rapl import PowerMonitor
from repro.experiments.runner import build_context
from repro.faults import (
    ActuatorFaults,
    AgentFaults,
    FaultEvent,
    FaultHarness,
    FaultPlan,
    SensorFaults,
    Watchdog,
    WatchdogConfig,
    standard_fault_plan,
)
from repro.faults.injectors import UNIFORM_BLOCK
from repro.server.telemetry import TelemetrySnapshot
from repro.sim import Engine, RngRegistry
from repro.workload import constant_trace


def _agent(seed=1, **over):
    rngs = RngRegistry(seed)
    return DeepPowerAgent(rngs.get("a"), default_ddpg_config(**over))


def _snap(time, window=1.0, queue_len=0):
    return TelemetrySnapshot(
        time=time, window=window, num_req=10, queue_len=queue_len,
        queue_frac=(0.5, 0.3, 0.2), core_frac=(0.5, 0.3, 0.2),
        timeouts=0, completed=10, utilization=0.5,
    )


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, "sensor.teleport")

    def test_negative_time_and_duration_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, "sensor.freeze")
        with pytest.raises(ValueError):
            FaultEvent(1.0, "sensor.freeze", duration=-2.0)

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(dvfs_fail_prob=1.5)
        with pytest.raises(ValueError):
            FaultPlan(sensor_noise_std=-1.0)

    def test_events_sorted_by_time(self):
        plan = FaultPlan(events=(
            FaultEvent(5.0, "sensor.freeze", duration=1.0),
            FaultEvent(1.0, "telemetry.drop", duration=1.0),
        ))
        assert [e.time for e in plan.events] == [1.0, 5.0]

    def test_empty_plan_detection(self):
        assert FaultPlan().is_empty
        assert not FaultPlan(dvfs_fail_prob=0.01).is_empty
        assert standard_fault_plan(0.0, 100.0).is_empty
        assert not standard_fault_plan(0.01, 100.0).is_empty

    def test_events_of_prefix(self):
        plan = standard_fault_plan(0.05, 100.0, agent_faults=True)
        assert len(plan.events_of("telemetry.drop")) == 3
        assert len(plan.events_of("sensor")) == 2
        assert len(plan.events_of("agent")) == 2


class TestSensorFaults:
    def _stack(self, engine):
        cpu = Cpu(engine, 2)
        monitor = PowerMonitor(engine, cpu)
        return cpu, monitor

    def test_freeze_yields_zero_window_delta(self, engine):
        _, monitor = self._stack(engine)
        plan = FaultPlan(events=(FaultEvent(1.0, "sensor.freeze", duration=2.0),))
        SensorFaults(engine, plan, np.random.default_rng(0), monitor=monitor).arm()
        engine.run_until(1.5)
        monitor.window_energy()  # first read inside the freeze window
        engine.run_until(2.5)
        assert monitor.window_energy() == 0.0  # counter stuck since 1.0
        engine.run_until(4.0)  # after the freeze
        assert monitor.window_energy() > 0.0

    def test_glitch_jump_is_clamped_and_counted(self, engine):
        _, monitor = self._stack(engine)
        plan = FaultPlan(events=(
            FaultEvent(1.0, "sensor.glitch", magnitude=3.2 * monitor.wrap_joules),
        ))
        SensorFaults(engine, plan, np.random.default_rng(0), monitor=monitor).arm()
        engine.run_until(0.5)
        monitor.window_energy()
        before = monitor.glitch_count
        engine.run_until(2.0)
        e = monitor.window_energy()
        assert e <= monitor.max_plausible_watts * 1.5 + 1e-9
        assert monitor.glitch_count == before + 1

    def test_telemetry_drop_replays_last_snapshot(self, tiny_app, engine):
        trace = constant_trace(tiny_app.rps_for_load(0.4, 2), 4.0)
        ctx = build_context(tiny_app, trace, 2, seed=4)
        plan = FaultPlan(events=(FaultEvent(2.0, "telemetry.drop", duration=1.5),))
        SensorFaults(
            ctx.engine, plan, np.random.default_rng(0), telemetry=ctx.server.telemetry
        ).arm()
        ctx.source.start()
        ctx.engine.run_until(1.0)
        first = ctx.server.telemetry.snapshot()
        ctx.engine.run_until(2.5)
        dropped = ctx.server.telemetry.snapshot()
        assert dropped.time == first.time  # stale replay of the last delivery
        ctx.engine.run_until(4.0)
        fresh = ctx.server.telemetry.snapshot()
        assert fresh.time > first.time


class TestActuatorFaults:
    def test_certain_write_failure_freezes_frequencies(self, engine):
        cpu = Cpu(engine, 2)
        plan = FaultPlan(dvfs_fail_prob=1.0)
        inj = ActuatorFaults(engine, plan, np.random.default_rng(0), cpu)
        inj.arm()
        before = cpu.cores[0].frequency
        applied = cpu.cores[0].set_frequency(cpu.table.fmin)
        assert applied == before
        assert cpu.cores[0].frequency == before
        assert inj.counts["actuator.write_fail"] == 1

    def test_offline_core_parks_at_fmin_and_ignores_writes(self, engine):
        cpu = Cpu(engine, 2)
        plan = FaultPlan(events=(
            FaultEvent(1.0, "actuator.offline", duration=2.0, target=1),
        ))
        ActuatorFaults(engine, plan, np.random.default_rng(0), cpu).arm()
        engine.run_until(1.5)
        assert cpu.cores[1].frequency == cpu.table.fmin
        cpu.cores[1].set_frequency(cpu.table.fmax)
        assert cpu.cores[1].frequency == cpu.table.fmin  # write ignored
        engine.run_until(3.5)
        cpu.cores[1].set_frequency(cpu.table.fmax)
        assert cpu.cores[1].frequency == cpu.table.fmax  # back online

    def test_delayed_write_lands_later(self, engine):
        cpu = Cpu(engine, 1)
        plan = FaultPlan(dvfs_delay_prob=1.0, dvfs_delay=0.5)
        ActuatorFaults(engine, plan, np.random.default_rng(0), cpu).arm()
        engine.run_until(1.0)
        before = cpu.cores[0].frequency
        cpu.cores[0].set_frequency(cpu.table.fmin)
        assert cpu.cores[0].frequency == before  # not yet
        engine.run_until(2.0)
        assert cpu.cores[0].frequency == cpu.table.fmin  # landed


class _PerCallActuatorOracle:
    """Reference DVFS injector: the closure-era ``faulted_set`` decision
    chain with one scalar ``rng.random()`` per fail/delay draw."""

    def __init__(self, engine, plan, rng, cpu):
        self.engine, self.plan, self.rng, self.cpu = engine, plan, rng, cpu
        self.counts = {}
        self.draws = 0
        self._offline_until = {}
        self._passthrough = False

    def arm(self):
        for core in self.cpu.cores:
            core.actuator = self
        for ev in self.plan.events_of("actuator.offline"):
            self.engine.schedule_at(ev.time, self._begin_offline, ev.target, ev.end)

    def _count(self, kind):
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def _random(self):
        self.draws += 1
        return self.rng.random()

    def refuse(self, core, freq):
        if self._passthrough:
            return False
        if self.engine.now < self._offline_until.get(core.core_id, -math.inf):
            self._count("actuator.offline_write")
            return True
        plan = self.plan
        if plan.dvfs_fail_prob > 0.0 and self._random() < plan.dvfs_fail_prob:
            self._count("actuator.write_fail")
            return True
        if plan.dvfs_delay_prob > 0.0 and self._random() < plan.dvfs_delay_prob:
            self._count("actuator.delay")
            self.engine.schedule_after(plan.dvfs_delay, self.apply, core, freq)
            return True
        return False

    def apply(self, core, freq):
        self._passthrough = True
        try:
            return core.set_frequency(freq)
        finally:
            self._passthrough = False

    def _begin_offline(self, core_id, until):
        self._count("actuator.offline")
        self.apply(self.cpu[core_id], self.cpu.table.fmin)
        self._offline_until[core_id] = until


class TestStackedActuatorStream:
    """The fleet tick's stacked fault draws consume each injector's stream
    exactly like one scalar ``rng.random()`` per decision, also when
    writes outside the tick (crash parking, cap clamps) interleave."""

    PLAN = FaultPlan(
        seed=9, dvfs_fail_prob=0.2, dvfs_delay_prob=0.3, dvfs_delay=0.0031,
        events=(FaultEvent(0.2003, "actuator.offline", duration=0.15, target=1),),
    )

    def _run(self, app, stacked):
        engine = Engine()
        node = ClusterNode(engine, 0, app, 3, num_workers=2, seed=4)
        cpu, table = node.cpu, node.cpu.table
        ctrl = ThreadController(engine, node.server)
        ctrl.start()
        levels, delayed = [], []
        for core in cpu.cores:
            core.add_frequency_listener(
                lambda c, old, new: levels.append((engine.now, c.core_id, new))
            )
        schedule_at = engine.schedule_at

        def spy(time, callback, *args, **kw):
            if getattr(callback, "__name__", "") == "apply":
                delayed.append((time, args[0].core_id, args[1]))
            return schedule_at(time, callback, *args, **kw)

        engine.schedule_at = spy
        rng = np.random.default_rng([self.PLAN.seed, 2])
        if stacked:
            batch = FleetBatch([node])
            inj = ActuatorFaults(engine, self.PLAN, rng, cpu)
            inj.arm()
            assert batch.adopt_controllers([ctrl])
            assert batch._acts == [inj]
        else:
            inj = _PerCallActuatorOracle(engine, self.PLAN, rng, cpu)
            inj.arm()
        for k in range(40):  # idle cores: the base alone sets the level
            engine.schedule_at(0.0105 + 0.025 * k, ctrl.set_params, 0.37 * k % 1.1, 0.5)
        engine.schedule_at(0.1505, cpu.set_ceiling, table.levels[2])
        engine.schedule_at(0.3505, cpu.set_all_frequencies, table.fmin)
        engine.schedule_at(0.5505, cpu.set_ceiling, table.turbo)
        engine.schedule_at(0.7505, cpu.set_all_frequencies, table.turbo)
        engine.run_until(1.0)
        return levels, list(inj.counts.items()), delayed, inj

    def test_stacked_draws_match_per_call_oracle(self, tiny_app):
        levels, counts, delayed, _ = self._run(tiny_app, stacked=True)
        ref_levels, ref_counts, ref_delayed, oracle = self._run(
            tiny_app, stacked=False
        )
        assert oracle.draws >= 3 * UNIFORM_BLOCK  # several buffer refills
        assert {k for k, _ in ref_counts} == {
            "actuator.write_fail", "actuator.delay",
            "actuator.offline", "actuator.offline_write",
        }
        assert levels == ref_levels
        assert counts == ref_counts  # values and key order
        assert delayed == ref_delayed


class TestAgentFaults:
    def _filled_agent(self):
        agent = _agent(warmup=2, batch_size=4)
        rng = np.random.default_rng(0)
        for _ in range(16):
            agent.observe(rng.random(8), rng.random(2), -1.0, rng.random(8))
        return agent

    def test_corruption_then_update_skips_and_stays_finite(self, engine):
        agent = self._filled_agent()
        plan = FaultPlan(events=(
            FaultEvent(1.0, "agent.corrupt_replay", magnitude=1.0),
        ))
        AgentFaults(engine, plan, np.random.default_rng(0), agent).arm()
        engine.run_until(1.5)
        assert np.isnan(agent.replay._states[: len(agent.replay), 0]).any()
        before = agent.skipped_updates
        assert agent.update() is None
        assert agent.skipped_updates == before + 1
        assert np.isfinite(agent.actor.get_flat()).all()
        assert np.isfinite(agent.critic.get_flat()).all()

    def test_inf_reward_poison_triggers_guard(self, engine):
        agent = self._filled_agent()
        plan = FaultPlan(events=(FaultEvent(1.0, "agent.nan_loss"),))
        AgentFaults(engine, plan, np.random.default_rng(0), agent).arm()
        engine.run_until(1.5)
        assert np.isinf(agent.replay._rewards[: len(agent.replay)]).any()
        # Sample repeatedly: every draw either trains cleanly or is skipped,
        # and the networks never absorb the poison.
        skipped_before = agent.skipped_updates
        for _ in range(20):
            agent.update()
        assert agent.skipped_updates > skipped_before
        assert np.isfinite(agent.actor.get_flat()).all()


class TestPowerMonitorScreen:
    def test_negative_and_nonfinite_deltas_clamp_to_zero(self, engine, cpu):
        mon = PowerMonitor(engine, cpu)
        assert mon._screen_delta(-5.0, 1.0) == 0.0
        assert mon._screen_delta(float("nan"), 1.0) == 0.0
        assert mon._screen_delta(float("inf"), 1.0) == 0.0
        assert mon.glitch_count == 3

    def test_implausible_delta_clamps_to_envelope(self, engine, cpu):
        mon = PowerMonitor(engine, cpu)
        ceiling = mon.max_plausible_watts * 2.0
        assert mon._screen_delta(1e9, 2.0) == pytest.approx(ceiling)
        assert mon.glitch_count == 1

    def test_plausible_delta_passes_bitwise(self, engine, cpu):
        mon = PowerMonitor(engine, cpu)
        assert mon._screen_delta(3.14159, 1.0) == 3.14159
        assert mon.glitch_count == 0

    def test_screen_disabled_with_none_margin(self, engine, cpu):
        mon = PowerMonitor(engine, cpu, plausible_margin=None)
        assert mon._screen_delta(1e9, 1.0) == 1e9
        assert mon.glitch_count == 0


class TestWatchdog:
    def _wd(self, **over):
        cfg = WatchdogConfig(
            trip_threshold=3, window_steps=6, cooldown_steps=2, relapse_window=8,
            **over,
        )
        return Watchdog(
            cfg, max_power_watts=100.0, min_power_watts=10.0,
            long_time=1.0, short_time=0.01,
        )

    def _step(self, wd, *, stale=False, now=1.0):
        wd.begin_step()
        snap = _snap(now - (1.0 if stale else 0.0))
        wd.screen_window(snap, 50.0, now=now, ticks=100)
        return wd.finish_step()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WatchdogConfig(trip_threshold=0)
        with pytest.raises(ValueError):
            WatchdogConfig(trip_threshold=5, window_steps=3)
        with pytest.raises(ValueError):
            WatchdogConfig(fallback="turbo-button")

    def test_trips_after_threshold_anomalous_steps(self):
        wd = self._wd()
        assert self._step(wd, stale=True, now=1.0) is None
        assert self._step(wd, stale=True, now=2.0) is None
        assert self._step(wd, stale=True, now=3.0) == "trip"
        assert wd.tripped and wd.trips == 1

    def test_healthy_steps_never_trip(self):
        wd = self._wd()
        for i in range(50):
            assert self._step(wd, now=float(i + 1)) is None
        assert wd.total_anomalies == 0 and wd.trips == 0

    def test_rearms_after_cooldown_and_counts_recovery(self):
        wd = self._wd()
        for i in range(3):
            self._step(wd, stale=True, now=float(i + 1))
        assert wd.tripped
        assert self._step(wd, now=4.0) is None
        assert self._step(wd, now=5.0) == "rearm"
        assert not wd.tripped and wd.recoveries == 1

    def test_relapse_doubles_cooldown_capped(self):
        wd = self._wd()
        now = [0.0]

        def advance(stale):
            now[0] += 1.0
            return self._step(wd, stale=stale, now=now[0])

        for _ in range(3):
            advance(True)
        while wd.tripped:
            advance(False)
        assert wd.current_cooldown == 2
        for _ in range(3):  # relapse immediately
            advance(True)
        assert wd.tripped
        assert wd.current_cooldown == 4  # backed off
        while wd.tripped:
            advance(False)
        # A calm stretch far beyond the relapse window resets the backoff.
        for _ in range(20):
            advance(False)
        for _ in range(3):
            advance(True)
        assert wd.current_cooldown == 2

    def test_repeated_back_to_back_faults_saturate_backoff(self):
        """A persistently flapping fleet: trip -> recover -> immediate
        relapse, over and over.  The cooldown must double per relapse up
        to the configured cap and the watchdog must keep trip/recovery
        accounting consistent throughout."""
        wd = self._wd(max_cooldown_steps=8)
        now = [0.0]

        def advance(stale):
            now[0] += 1.0
            return self._step(wd, stale=stale, now=now[0])

        expected_cooldowns = [2, 4, 8, 8, 8]  # doubles, then pins at the cap
        for round_no, expected in enumerate(expected_cooldowns):
            for _ in range(3):  # back-to-back anomalous steps re-trip
                advance(True)
            assert wd.tripped, f"round {round_no} failed to trip"
            # The backoff is applied at (re-)trip time.
            assert wd.current_cooldown == expected
            healthy = 0
            while wd.tripped:
                advance(False)
                healthy += 1
            # Re-arm took exactly the backed-off cooldown of this round.
            assert healthy == expected
        assert wd.trips == len(expected_cooldowns)
        assert wd.recoveries == len(expected_cooldowns)

    def test_trip_during_cooldown_resets_healthy_streak(self):
        """An anomalous step mid-cooldown re-trips instead of re-arming."""
        wd = self._wd()
        now = [0.0]

        def advance(stale):
            now[0] += 1.0
            return self._step(wd, stale=stale, now=now[0])

        for _ in range(3):
            advance(True)
        assert wd.tripped and wd.trips == 1
        advance(False)  # one healthy step of the two needed
        for _ in range(3):
            advance(True)  # fault storm resumes before re-arm
        assert wd.tripped
        assert wd.recoveries == 0  # never recovered in between
        advance(False)
        assert advance(False) == "rearm"
        assert wd.recoveries == 1

    def test_screen_substitutions(self):
        wd = self._wd()
        wd.begin_step()
        # Frozen sensor: zero energy over a healthy window.
        snap, energy = wd.screen_window(_snap(1.0), 0.0, now=1.0, ticks=100)
        assert energy > 0.0
        # Non-finite state falls back to zeros (no prior healthy state).
        s = wd.screen_state(np.array([np.nan] * 8))
        assert np.all(s == 0.0)
        # Non-finite action snaps to the safe action; out-of-box is clipped.
        a = wd.screen_action(np.array([np.inf, 0.5]))
        assert tuple(a) == wd.cfg.safe_action
        a = wd.screen_action(np.array([1.7, -0.2]))
        assert tuple(a) == (1.0, 0.0)
        assert wd.step_anomalies == 4


class TestRuntimeRestart:
    def _build(self, tiny_app, duration=4.0):
        trace = constant_trace(tiny_app.rps_for_load(0.4, 2), duration)
        ctx = build_context(tiny_app, trace, 2, seed=4)
        agent = _agent(warmup=2, batch_size=4)
        cfg = DeepPowerConfig(long_time=0.5)
        rt = DeepPowerRuntime(ctx.engine, ctx.server, ctx.monitor, agent, cfg)
        return rt, ctx

    def test_double_start_raises(self, tiny_app):
        rt, _ = self._build(tiny_app)
        rt.start()
        with pytest.raises(RuntimeError):
            rt.start()

    def test_stop_then_start_resumes_cleanly(self, tiny_app):
        rt, ctx = self._build(tiny_app, duration=6.0)
        rt.start()
        ctx.source.start()
        ctx.engine.run_until(2.0)
        rt.stop()
        assert rt._prev is None
        steps_before = rt.step_count
        ctx.engine.run_until(3.0)  # a gap with no control loop
        rt.start()  # must re-zero the energy window, not bill the gap
        ctx.engine.run_until(5.0)
        rt.stop()
        assert rt.step_count > steps_before
        post = [r for r in rt.records if r.time > 3.0]
        assert post
        # Without the energy-window re-zero in start(), the first
        # post-restart step would absorb the whole gap's joules into a
        # 0.5 s window and report physically impossible power.
        max_w = ctx.cpu.power_model.socket_power(
            np.full(ctx.cpu.num_cores, ctx.cpu.table.turbo),
            np.ones(ctx.cpu.num_cores, dtype=bool),
        )
        assert all(r.power_watts <= max_w * 1.01 for r in post)


class TestFaultToleranceAcceptance:
    """The issue's acceptance scenario, at test scale: a seeded plan with
    >= 1 % DVFS failures plus periodic telemetry dropouts; the watchdog-
    enabled runtime must finish with finite records and both trip into and
    recover from the fallback governor."""

    def _run(self, tiny_app, plan, *, watchdog=True, seed=4, duration=12.0, agent=None):
        trace = constant_trace(tiny_app.rps_for_load(0.4, 2), duration)
        ctx = build_context(tiny_app, trace, 2, seed=seed)
        agent = agent or _agent(warmup=2, batch_size=4)
        cfg = DeepPowerConfig(
            long_time=0.5, watchdog=WatchdogConfig() if watchdog else None
        )
        rt = DeepPowerRuntime(ctx.engine, ctx.server, ctx.monitor, agent, cfg)
        harness = FaultHarness(
            plan, ctx.engine, cpu=ctx.cpu, monitor=ctx.monitor,
            telemetry=ctx.server.telemetry, agent=agent,
        ).arm()
        rt.start()
        ctx.source.start()
        ctx.engine.run_until(duration)
        rt.stop()
        return rt, harness

    def test_survives_and_recovers_under_seeded_plan(self, tiny_app):
        plan = standard_fault_plan(
            0.05, 12.0, long_time=0.5, seed=3, agent_faults=True
        )
        assert plan.dvfs_fail_prob >= 0.01
        assert plan.events_of("telemetry.drop")
        rt, harness = self._run(tiny_app, plan)

        stats = rt.watchdog_stats()
        assert stats["trips"] >= 1
        assert stats["recoveries"] >= 1
        assert harness.total_injected > 0
        assert any(r.fallback for r in rt.records)
        assert any(not r.fallback for r in rt.records)

        # Zero NaNs anywhere in the step records.
        for r in rt.records:
            assert np.isfinite(r.state).all()
            assert np.isfinite(r.action).all()
            assert np.isfinite(r.reward.total)
            assert np.isfinite(r.power_watts)
            assert np.isfinite(r.avg_frequency)
        assert np.isfinite(rt.agent.actor.get_flat()).all()

    def test_empty_plan_is_bitwise_noop(self, tiny_app):
        """Fault subsystem armed with an empty plan + watchdog enabled on a
        healthy run must be bitwise identical to the plain runtime."""
        rt_plain, _ = self._run(
            tiny_app, FaultPlan(), watchdog=False, duration=6.0, agent=_agent(warmup=2, batch_size=4)
        )
        rt_armed, harness = self._run(
            tiny_app, FaultPlan(), watchdog=True, duration=6.0, agent=_agent(warmup=2, batch_size=4)
        )
        assert harness.total_injected == 0
        assert rt_armed.watchdog_stats()["trips"] == 0
        assert rt_armed.watchdog_stats()["total_anomalies"] == 0
        assert len(rt_plain.records) == len(rt_armed.records) > 0
        for a, b in zip(rt_plain.records, rt_armed.records):
            assert a.time == b.time
            assert np.array_equal(a.state, b.state)
            assert np.array_equal(a.action, b.action)
            assert a.reward.total == b.reward.total
            assert a.power_watts == b.power_watts
            assert a.avg_frequency == b.avg_frequency

    def test_watchdog_off_historical_behaviour_unchanged(self, tiny_app):
        rt, _ = self._run(tiny_app, FaultPlan(), watchdog=False, duration=4.0)
        assert rt.watchdog is None
        assert rt.watchdog_stats() is None
        assert all(not r.fallback and r.anomalies == 0 for r in rt.records)
