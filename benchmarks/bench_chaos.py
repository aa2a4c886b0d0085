"""Extension bench: chaos — the fleet under seeded node failures.

Runs the fault-intensity x routing chaos grid plus the no-failover
ablation rows.  The claim under test is the issue's acceptance contrast:
with health-aware failover dispatch the fleet keeps meeting the SLA on
surviving nodes through a crash, a correlated rack failure and a
telemetry partition, while the oblivious round-robin ablation — which
keeps feeding dead nodes — measurably does not.  Availability, redispatch
and drop counters come along for the per-row report.
"""

from functools import partial

from conftest import run_once

from repro.experiments.fleet import render_fleet_grid, run_fleet_grid


def test_chaos_grid(benchmark, emit):
    result = run_once(benchmark, partial(run_fleet_grid, "chaos"), app_name="xapian")
    emit("Extension — chaos grid, Xapian", render_fleet_grid("chaos", result))

    rows = {
        (r["routing"], r["intensity"], r["failover"]): r["metrics"]
        for r in result["rows"]
        if "metrics" in r
    }
    assert len(rows) == len(result["rows"]), "no cell may error out"

    # No-fault baselines are clean: full availability, nothing redispatched.
    for routing in ("round-robin", "jsq", "power-aware"):
        base = rows[(routing, 0.0, True)]
        assert base["crashes"] == 0
        assert base["redispatches"] == 0
        assert base["fleet_availability"] == 1.0
        assert base["fleet"]["sla_met"]

    # Faults actually flow at the top intensity.
    chaotic = rows[("round-robin", 1.0, True)]
    assert chaotic["crashes"] >= 1
    assert chaotic["redispatches"] >= 1
    assert chaotic["fleet_availability"] < 1.0

    # The acceptance contrast: failover meets the SLA, the round-robin
    # no-failover ablation blows its tail by feeding dead nodes.
    ablation = rows[("round-robin", 1.0, False)]
    assert chaotic["fleet"]["sla_met"]
    assert not ablation["fleet"]["sla_met"]
    assert ablation["fleet"]["tail_latency"] > 5 * chaotic["fleet"]["tail_latency"]
