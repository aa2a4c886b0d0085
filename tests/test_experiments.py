"""Tests for the experiment harness (runner, calibration, registry, modules)."""

import inspect

import numpy as np
import pytest

from repro.baselines import MaxFrequencyPolicy
from repro.experiments import (
    REGISTRY,
    SMOKE,
    active_profile,
    build_context,
    calibrate_to_sla,
    evaluation_trace,
    get_experiment,
    list_experiments,
    run_policy,
    workers_for,
)
from repro.experiments.fig1_cdf import run_fig1
from repro.experiments.fig2_rmse import run_fig2
from repro.experiments.fig5_scalefunc import run_fig5
from repro.experiments.fig6_workload import run_fig6
from repro.experiments.fig11_fixed_params import run_fig11
from repro.experiments.overhead import run_overhead
from repro.experiments.table2_inference import run_table2
from repro.workload import constant_trace


class TestRunner:
    def test_run_policy_produces_complete_metrics(self, tiny_app):
        trace = constant_trace(tiny_app.rps_for_load(0.4, 2), 8.0)
        res = run_policy(lambda ctx: MaxFrequencyPolicy(ctx), tiny_app, trace, 2, seed=1)
        m = res.metrics
        assert m.completed > 100
        assert m.energy_joules > 0
        assert m.avg_power_watts == pytest.approx(m.energy_joules / 8.0)
        assert m.duration == 8.0

    def test_drain_completes_inflight_requests(self, tiny_app):
        trace = constant_trace(tiny_app.rps_for_load(0.6, 2), 4.0)
        res = run_policy(lambda ctx: MaxFrequencyPolicy(ctx), tiny_app, trace, 2, seed=1)
        # open-loop generated == completed after the grace drain
        assert res.metrics.timeouts >= 0
        assert res.metrics.completed >= res.metrics.throughput * 4.0 * 0.95

    def test_extras_fn_collects_artifacts(self, tiny_app):
        trace = constant_trace(10.0, 2.0)
        res = run_policy(
            lambda ctx: MaxFrequencyPolicy(ctx), tiny_app, trace, 2, seed=1,
            extras_fn=lambda ctx, drv: {"switches": ctx.cpu.total_switches()},
        )
        assert "switches" in res.extras

    def test_seed_reproducibility(self, tiny_app):
        trace = constant_trace(tiny_app.rps_for_load(0.4, 2), 5.0)
        a = run_policy(lambda ctx: MaxFrequencyPolicy(ctx), tiny_app, trace, 2, seed=42)
        b = run_policy(lambda ctx: MaxFrequencyPolicy(ctx), tiny_app, trace, 2, seed=42)
        assert a.metrics.tail_latency == b.metrics.tail_latency
        assert a.metrics.energy_joules == b.metrics.energy_joules

    def test_build_context_components(self, tiny_app):
        ctx = build_context(tiny_app, constant_trace(5.0, 1.0), 2, 1)
        assert ctx.cpu.num_cores == 2
        assert ctx.server.num_workers == 2
        assert ctx.app is tiny_app


class TestCalibration:
    def test_hits_target_fraction(self, tiny_app, rngs):
        from repro.workload import diurnal_trace

        base = diurnal_trace(rngs.get("t"), duration=20.0, num_segments=10)
        cal = calibrate_to_sla(
            tiny_app, base, num_cores=2, target_fraction=0.6, tol=0.15
        )
        assert cal.baseline_p99_fraction == pytest.approx(0.6, rel=0.3)
        assert 0.0 < cal.mean_load < 1.0

    def test_validation(self, tiny_app, rngs):
        from repro.workload import diurnal_trace

        base = diurnal_trace(rngs.get("t"), duration=10.0, num_segments=5)
        with pytest.raises(ValueError):
            calibrate_to_sla(tiny_app, base, 2, target_fraction=0.0)


class TestScenarios:
    def test_profile_selection(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert active_profile().name == "smoke"
        assert active_profile(full=True).name == "full"
        monkeypatch.setenv("REPRO_FULL", "1")
        assert active_profile().name == "full"

    def test_workers_for_masstree_half_socket(self):
        assert workers_for("masstree", 8) == 4
        assert workers_for("xapian", 8) == 8

    def test_evaluation_trace_matches_profile(self):
        t = evaluation_trace(SMOKE)
        assert t.duration == pytest.approx(SMOKE.trace_duration)


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        ids = set(REGISTRY)
        required = {
            "fig1", "fig2", "table2", "table3", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10", "fig11", "overhead",
        }
        assert required <= ids

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_list_sorted(self):
        exps = list_experiments()
        assert [e.id for e in exps] == sorted(e.id for e in exps)


class TestCheapExperiments:
    """Each fast experiment runs end-to-end at reduced scale and shows the
    paper's qualitative shape."""

    def test_fig1_moses_longest_tail(self):
        res = run_fig1(n=4000, seed=1)
        ratios = {k: v.tail_ratio_p99 for k, v in res.items()}
        assert max(ratios, key=ratios.get) == "moses"
        assert all(v.x[0] >= 0 for v in res.values())

    def test_fig2_offdiagonal_exceeds_diagonal(self):
        res = run_fig2(apps=("masstree",), loads=(0.2, 0.9), n=2500, seed=1)
        m = res["masstree"].matrix
        assert np.allclose(np.diag(m), 1.0)
        assert m[1, 0] > 1.1

    def test_table2_all_algorithms_timed(self):
        res = run_table2(repetitions=50)
        assert set(res) == {"DQN", "DDQN", "DDPG", "SAC"}
        assert all(t.mean_us > 1.0 for t in res.values())
        # the motivating conclusion: inference is tens of microseconds+
        assert res["DDPG"].mean_us > 10.0

    def test_fig5_change_point_at_eta(self):
        res = run_fig5(eta=50.0)
        assert res.change_point == pytest.approx(50.0, rel=0.1)
        assert res.y[0] == pytest.approx(0.0, abs=1e-6)
        assert res.y[-1] > 0.8

    def test_fig6_diurnal_statistics(self):
        res = run_fig6(seed=3, duration=60.0, segments=30)
        assert res.daily_autocorr > 0.5
        assert res.peak_mean_ratio > 1.3
        assert len(res.downsampled.rates) == 30

    def test_fig11_ordering(self):
        res = run_fig11(window_physical=0.02, full=False)
        settings_list = list(res)
        floors = [res[s].idle_floor for s in settings_list]
        ramps = [res[s].mean_busy_ramp for s in settings_list]
        assert floors == sorted(floors)  # idle floor grows with BaseFreq
        assert ramps == sorted(ramps, reverse=True)  # ramp grows with coef

    def test_overhead_within_paper_budgets(self):
        res = run_overhead(updates=5, inferences=100)
        assert res.update_ms_batch64 < 50.0  # paper: 13 ms
        assert res.inference_us < 1000.0  # paper: < 1 ms
        assert res.actor_parameters > 1000


class TestRenderers:
    def test_every_cheap_experiment_renders_text(self):
        for eid in ("fig5",):
            out = get_experiment(eid).execute()
            assert isinstance(out, str) and len(out) > 10


class TestChaosExperiment:
    def test_registered(self):
        assert "chaos" in REGISTRY
        assert "failover" in REGISTRY["chaos"].description

    def test_render_contrasts_failover_and_ablation(self):
        def fleet(p99, met):
            return {
                "avg_power_watts": 60.0, "energy_joules": 3600.0,
                "tail_latency": p99, "sla": 0.08, "sla_met": met,
                "timeout_rate": 0.01,
            }

        result = {
            "profile": "smoke", "app": "xapian", "num_nodes": 4,
            "cores_per_node": 2, "seed": 2023,
            "rows": [
                {"routing": "round-robin", "intensity": 0.0, "failover": True,
                 "metrics": {"fleet": fleet(0.07, True), "crashes": 0,
                             "redispatches": 0, "dropped_requests": 0,
                             "fleet_availability": 1.0}},
                {"routing": "round-robin", "intensity": 1.0, "failover": True,
                 "metrics": {"fleet": fleet(0.078, True), "crashes": 2,
                             "redispatches": 3, "dropped_requests": 0,
                             "fleet_availability": 0.93}},
                {"routing": "round-robin", "intensity": 1.0, "failover": False,
                 "metrics": {"fleet": fleet(10.6, False), "crashes": 2,
                             "redispatches": 0, "dropped_requests": 0,
                             "fleet_availability": 0.93}},
                {"routing": "jsq", "intensity": 1.0, "failover": True,
                 "error": "boom"},
            ],
        }
        out = get_experiment("chaos").render(result)
        assert "chaos: 4 nodes" in out
        assert "met" in out and "MISS" in out
        assert "NO" in out  # the ablation row is flagged
        assert "ERROR" in out


def _grid_metrics(tail, energy=3600.0, sla_met=True, cap_ok=True):
    return {
        "fleet": {
            "avg_power_watts": 60.04, "energy_joules": energy,
            "tail_latency": tail, "sla": 0.08, "sla_met": sla_met,
            "timeout_rate": 0.0123,
        },
        "max_window_power": 71.25, "routed_imbalance": 1.04,
        "cap_ok": cap_ok, "crashes": 2, "redispatches": 3,
        "dropped_requests": 1, "fleet_availability": 0.9312,
        "hier_decisions": 60,
    }


_GRID_SHAPE = {"profile": "smoke", "app": "xapian", "num_nodes": 4,
               "cores_per_node": 2, "seed": 2023}
#: One fixed result per fleet grid: an ok row, a NaN tail, a ``None`` cap
#: and an error row, in the shape the grid runners return.
SYNTHETIC_GRID_RESULTS = {
    "fleet": dict(_GRID_SHAPE, budget_watts=82.94, rows=[
        {"routing": "jsq", "policy": "retail", "cap_watts": None,
         "metrics": _grid_metrics(0.0741)},
        {"routing": "power-aware", "policy": "gemini", "cap_watts": 82.94,
         "metrics": _grid_metrics(float("nan"), cap_ok=False)},
        {"routing": "power-aware", "policy": "baseline", "cap_watts": 82.94,
         "error": "boom"},
    ]),
    "chaos": dict(_GRID_SHAPE, rows=[
        {"routing": "round-robin", "intensity": 0.0, "failover": True,
         "metrics": _grid_metrics(0.07)},
        {"routing": "round-robin", "intensity": 1.0, "failover": False,
         "metrics": _grid_metrics(float("nan"), sla_met=False)},
        {"routing": "jsq", "intensity": 1.0, "failover": True,
         "error": "boom"},
    ]),
    "hier": dict(_GRID_SHAPE, budget_watts=82.94, rows=[
        {"coordinator": "learned", "policy": "baseline", "cap_watts": 82.94,
         "metrics": _grid_metrics(0.075, energy=3500.0)},
        {"coordinator": "heuristic", "policy": "baseline", "cap_watts": 82.94,
         "metrics": _grid_metrics(0.072, energy=3700.0)},
        {"coordinator": "uncapped", "policy": "baseline", "cap_watts": None,
         "metrics": _grid_metrics(float("nan"), sla_met=False)},
        {"coordinator": "learned", "policy": "controller", "cap_watts": 82.94,
         "error": "boom"},
    ]),
}

#: The rendered text of each synthetic result, byte for byte (trailing
#: column padding included).
PINNED_RENDERS = {
    'fleet': (
        'fleet: 4 nodes x 2 cores, app=xapian, profile=smoke, seed=2023, budget=82.9 W (capped rows)',
        'routing      policy    cap(W)  power(W)  peak(W)  energy(J)  p99(ms)  p99/SLA  timeout  imbalance  cap_ok',
        '---------------------------------------------------------------------------------------------------------',
        'jsq          retail    -       60.0      71.2     3600       74.10    0.93     1.23%    1.04       yes   ',
        'power-aware  gemini    82.9    60.0      71.2     3600       n/a      n/a      1.23%    1.04       NO    ',
        'power-aware  baseline  82.9    ERROR     ERROR    ERROR      ERROR    ERROR    ERROR    ERROR      ERROR ',
    ),
    'chaos': (
        'chaos: 4 nodes x 2 cores, app=xapian, policy=retail, profile=smoke, seed=2023 (failover=NO rows: health-aware dispatch disabled)',
        'routing      intensity  failover  power(W)  energy(J)  p99(ms)  p99/SLA  sla    timeout  crashes  redisp  dropped  avail',
        '------------------------------------------------------------------------------------------------------------------------',
        'round-robin  0.0        yes       60.0      3600       70.00    0.88     met    1.23%    2        3       1        0.931',
        'round-robin  1.0        NO        60.0      3600       n/a      n/a      MISS   1.23%    2        3       1        0.931',
        'jsq          1.0        yes       ERROR     ERROR      ERROR    ERROR    ERROR  ERROR    ERROR    ERROR   ERROR    ERROR',
    ),
    'hier': (
        'hier: 4 nodes x 2 cores, app=xapian, profile=smoke, seed=2023, budget=82.9 W (capped rows)',
        'policy      coordinator  cap(W)  power(W)  energy(J)  p99(ms)  p99/SLA  sla_met  timeout  imbalance  decisions  cap_ok',
        '----------------------------------------------------------------------------------------------------------------------',
        'baseline    learned      82.9    60.0      3500       75.00    0.94     yes      1.23%    1.04       60         yes   ',
        'baseline    heuristic    82.9    60.0      3700       72.00    0.90     yes      1.23%    1.04       60         yes   ',
        'baseline    uncapped     -       60.0      3600       n/a      n/a      NO       1.23%    1.04       60         yes   ',
        'controller  learned      82.9    ERROR     ERROR      ERROR    ERROR    ERROR    ERROR    ERROR      ERROR      ERROR ',
        'learned <= heuristic energy at equal-or-better SLA: baseline (5.4% energy saved)',
    ),
}


class TestFleetGrids:
    @pytest.mark.parametrize("name", sorted(SYNTHETIC_GRID_RESULTS))
    def test_render_pinned(self, name):
        out = get_experiment(name).render(SYNTHETIC_GRID_RESULTS[name])
        assert out == "\n".join(PINNED_RENDERS[name])

    @pytest.mark.parametrize("name", sorted(SYNTHETIC_GRID_RESULTS))
    def test_registry_forwards_parallel_options(self, name):
        # Experiment.execute forwards jobs/result_cache/trace_dir only to
        # run functions whose signature declares them.
        params = inspect.signature(REGISTRY[name].run).parameters
        assert {"jobs", "result_cache", "trace_dir"} <= set(params)

    @pytest.mark.parametrize("name", sorted(SYNTHETIC_GRID_RESULTS))
    def test_run_fleet_grid_shape_smoke(self, name, monkeypatch):
        """The grid builder fans the right cells without running sims."""
        import repro.experiments.fleet as fleet_mod
        from repro.cluster import fleet_power_budget

        captured = {}

        def fake_run_grid(specs, jobs=1, cache=None, trace_dir=None):
            captured["specs"] = list(specs)

            class _O:
                ok = False
                error = "stubbed"

            return [_O()] * len(captured["specs"])

        monkeypatch.setattr(fleet_mod, "run_grid", fake_run_grid)
        result = fleet_mod.run_fleet_grid(name, full=False, num_nodes=2, seed=5)
        budget = fleet_power_budget(2, 2, fraction=fleet_mod.CAP_FRACTION)
        # (label, fault plan?, health_aware, hier?, cap) per cell, in order.
        expected = {
            "fleet": [
                (f"smoke-fleet-{r}", False, None, False, None)
                for r in ("round-robin", "jsq", "power-aware")
                for _ in range(3)
            ] + [("smoke-fleet-capped", False, None, False, budget)] * 3,
            "chaos": [
                (f"smoke-chaos-{r}-i{i}", i == "1", None, False, None)
                for r in ("round-robin", "jsq", "power-aware")
                for i in ("0", "1")
            ] + [
                (f"smoke-chaos-{r}-i1-nofailover", True, False, False, None)
                for r in ("round-robin", "jsq", "power-aware")
            ],
            "hier": [
                (f"smoke-hier-{c}", False, None, c == "learned",
                 None if c == "uncapped" else budget)
                for _ in ("baseline", "controller")
                for c in ("learned", "heuristic", "uncapped")
            ],
        }[name]
        specs = captured["specs"]
        assert [
            (s.label, s.fault_plan is not None, s.health_aware,
             s.hier is not None, s.power_cap_watts)
            for s in specs
        ] == expected
        assert all(s.num_nodes == 2 and s.seed == 5 for s in specs)
        assert len(result["rows"]) == len(expected)
        assert all("error" in row for row in result["rows"])
        assert ("budget_watts" in result) == (name != "chaos")
