"""Cross-module property tests: invariants the whole stack must uphold."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ThreadController
from repro.cpu import DEFAULT_POWER_MODEL, DEFAULT_TABLE, Cpu, PowerMonitor
from repro.experiments.runner import build_context
from repro.faults import ActuatorFaults, FaultPlan
from repro.server import Server
from repro.sim import Engine, RngRegistry
from repro.workload import (
    LognormalCorrelatedService,
    OpenLoopSource,
    constant_trace,
    diurnal_trace,
)
from repro.workload.apps import AppSpec


def _app(sla=0.06, mean=0.02, sigma=0.6, rho=0.7, contention=0.3):
    return AppSpec(
        name="prop",
        sla=sla,
        service=LognormalCorrelatedService(mean_work=mean, sigma=sigma, rho=rho),
        contention=contention,
        short_time=0.002,
    )


class TestEnergyInvariants:
    @given(
        seed=st.integers(0, 5000),
        load=st.floats(min_value=0.1, max_value=0.7),
    )
    @settings(max_examples=10, deadline=None)
    def test_energy_monotone_and_bounded(self, seed, load):
        """Socket energy grows monotonically and lies between the all-idle-
        at-fmin and all-busy-at-turbo envelopes."""
        app = _app()
        engine = Engine()
        rngs = RngRegistry(seed)
        cpu = Cpu(engine, 2)
        srv = Server(engine, cpu, app)
        src = OpenLoopSource(
            engine, constant_trace(app.rps_for_load(load, 2), 5.0),
            app.service, app.sla, srv.submit, rngs.get("a"),
        )
        src.start()
        prev = 0.0
        for t in np.linspace(0.5, 5.0, 10):
            engine.run_until(t)
            e = cpu.energy_joules()
            assert e >= prev
            prev = e
        pm = DEFAULT_POWER_MODEL
        lo = pm.socket_power(np.full(2, 0.8), np.zeros(2, dtype=bool)) * 5.0
        hi = pm.socket_power(np.full(2, 3.0), np.ones(2, dtype=bool)) * 5.0
        assert lo <= cpu.energy_joules() <= hi

    def test_rapl_window_sum_equals_total(self):
        """Sum of window readings == total energy (no double counting)."""
        engine = Engine()
        cpu = Cpu(engine, 3)
        mon = PowerMonitor(engine, cpu)
        total = 0.0
        rng = np.random.default_rng(0)
        for _ in range(40):
            cpu.set_all_frequencies(float(rng.choice([0.8, 1.5, 3.0])))
            engine.run_until(engine.now + float(rng.uniform(0.01, 0.5)))
            total += mon.window_energy()
        assert total == pytest.approx(mon.total_energy(), rel=1e-9)


class TestLatencyInvariants:
    @given(seed=st.integers(0, 5000))
    @settings(max_examples=8, deadline=None)
    def test_latency_decomposition(self, seed):
        """latency == queue_time + service_time for every completion, and
        service_time >= work / turbo (nothing runs faster than turbo)."""
        app = _app()
        engine = Engine()
        rngs = RngRegistry(seed)
        cpu = Cpu(engine, 2)
        srv = Server(engine, cpu, app, keep_requests=True)
        tc = ThreadController(engine, srv)
        tc.set_params(0.4, 0.8)
        tc.start()
        src = OpenLoopSource(
            engine, constant_trace(app.rps_for_load(0.5, 2), 4.0),
            app.service, app.sla, srv.submit, rngs.get("a"),
        )
        src.start()
        engine.run_until(5.0)
        done = [r for r in srv.metrics.requests if r.finish_time is not None]
        assert len(done) > 20
        for r in done:
            assert r.latency == pytest.approx(r.queue_time + r.service_time)
            assert r.service_time >= r.effective_work / DEFAULT_TABLE.turbo - 1e-9
            assert r.service_time <= r.effective_work / DEFAULT_TABLE.fmin + 1e-9

    @given(load=st.floats(min_value=0.05, max_value=0.5), seed=st.integers(0, 1000))
    @settings(max_examples=8, deadline=None)
    def test_faster_cpu_never_hurts_mean_latency(self, load, seed):
        """Same arrivals: turbo-everywhere mean latency <= fmin-everywhere."""
        results = {}
        app = _app()
        for freq in (DEFAULT_TABLE.fmin, DEFAULT_TABLE.turbo):
            engine = Engine()
            rngs = RngRegistry(seed)
            cpu = Cpu(engine, 2)
            cpu.set_all_frequencies(freq)
            srv = Server(engine, cpu, app)
            src = OpenLoopSource(
                engine, constant_trace(app.rps_for_load(load, 2), 4.0),
                app.service, app.sla, srv.submit, rngs.get("a"),
            )
            src.start()
            engine.run_until(6.0)
            results[freq] = srv.metrics.mean_latency()
        assert results[DEFAULT_TABLE.turbo] <= results[DEFAULT_TABLE.fmin] + 1e-9


class TestControllerInvariants:
    @given(
        bf=st.floats(min_value=0.0, max_value=1.0),
        sc=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_controller_frequencies_never_below_base_floor(self, bf, sc):
        """While the controller runs, no worker core sits below the
        BaseFreq-interpolated floor."""
        app = _app()
        ctx = build_context(app, constant_trace(app.rps_for_load(0.4, 2), 2.0), 2, 7)
        tc = ThreadController(ctx.engine, ctx.server)
        tc.set_params(bf, sc)
        tc.start()
        ctx.source.start()
        floor = DEFAULT_TABLE.quantize(DEFAULT_TABLE.from_score(bf))
        for t in np.linspace(0.2, 2.0, 8):
            ctx.engine.run_until(t)
            for w in ctx.server.workers:
                assert w.core.frequency >= floor - 1e-9


_FREQS = st.floats(min_value=0.1, max_value=4.0, allow_nan=False)
_CEILINGS = st.sampled_from(DEFAULT_TABLE.levels)


class _RecordingActuator:
    """Accepts every DVFS write and records ``(core_id, raw request)``."""

    def __init__(self, calls):
        self.calls = calls

    def refuse(self, core, freq):
        self.calls.append((core.core_id, freq))
        return False


class TestCeilingInvariants:
    @given(freq=_FREQS, ceiling=_CEILINGS, quantize=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_capped_core_write_is_quantised_min(self, freq, ceiling, quantize):
        """A capped core applies ``quantize(min(f, ceiling))`` (or the bare
        ``min`` when the caller already quantised)."""
        cpu = Cpu(Engine(), 1)
        cpu.set_ceiling(ceiling)
        core = cpu.cores[0]
        expected = min(freq, ceiling)
        if quantize:
            expected = DEFAULT_TABLE.quantize(expected)
        assert core.set_frequency(freq, quantize=quantize) == expected
        assert core.frequency == expected

    @given(
        rounds=st.lists(st.lists(_FREQS, min_size=20, max_size=20),
                        min_size=1, max_size=3),
        ceiling=_CEILINGS,
        cores=st.sampled_from([4, 20]),  # scalar loop and numpy pass
        wrapper=st.sampled_from(["none", "injector", "spy-even"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_capped_batch_write_equals_per_core_writes(
        self, rounds, ceiling, cores, wrapper
    ):
        """``Cpu.set_frequencies`` on a capped socket leaves the same state,
        returns the same levels and shows a wrapper the same raw calls as
        one ``set_frequency`` per core."""

        def build():
            engine = Engine()
            cpu = Cpu(engine, cores)
            cpu.set_ceiling(ceiling)
            calls = []
            if wrapper == "injector":
                plan = FaultPlan(seed=3, dvfs_fail_prob=0.3)
                ActuatorFaults(engine, plan, np.random.default_rng(3), cpu).arm()
            elif wrapper == "spy-even":
                recorder = _RecordingActuator(calls)
                for core in cpu.cores[::2]:
                    core.actuator = recorder
            return cpu, calls

        batched, batched_calls = build()
        ref, ref_calls = build()
        for freqs in rounds:
            applied = batched.set_frequencies(np.array(freqs[:cores])).tolist()
            expected = [c.set_frequency(f) for c, f in zip(ref.cores, freqs)]
            assert applied == expected
            assert batched.frequencies().tolist() == ref.frequencies().tolist()
            assert all(f <= ceiling for f in applied)
        assert batched_calls == ref_calls
        assert [c.switch_count for c in batched.cores] == [
            c.switch_count for c in ref.cores
        ]


class TestTraceInvariants:
    @given(seed=st.integers(0, 10_000), duration=st.floats(20.0, 200.0))
    @settings(max_examples=15, deadline=None)
    def test_diurnal_trace_wellformed(self, seed, duration):
        rngs = RngRegistry(seed)
        t = diurnal_trace(rngs.get("d"), duration=duration, num_segments=24)
        assert t.duration == pytest.approx(duration)
        assert (t.rates > 0).all()
        assert np.all(np.diff(t.edges) > 0)
        assert t.expected_requests() == pytest.approx(
            float(np.sum(t.rates * np.diff(t.edges)))
        )
