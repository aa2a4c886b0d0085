"""Fleet experiments: one grid runner, three named grids.

At fleet scale every question this repo asks is one
:class:`~repro.cluster.sim.FleetSpec` with optional parts, so the fleet
experiments share :func:`run_fleet_grid` and :func:`render_fleet_grid`
and differ only by a named :class:`FleetGrid` in :data:`GRIDS`:

* ``fleet`` — routing policy × power policy, uncapped, plus a capped
  column under the power-aware router (throttled nodes shed traffic)
  where the :class:`~repro.cluster.powercap.PowerCapCoordinator` holds
  the fleet to a deterministic global budget.
* ``chaos`` — fault intensity × routing under
  :func:`~repro.faults.fleet.standard_chaos_plan` (a node crash, a rack
  failure, a telemetry partition, per-node DVFS faults), plus a
  no-failover ablation at the top intensity: an oblivious round-robin
  router keeps feeding dead nodes and blows the fleet p99, queue-aware
  routers partially self-heal.
* ``hier`` — learned (:class:`~repro.hier.LearnedBudgetCoordinator`)
  vs. heuristic budget coordinator vs. uncapped: the learned apportioner
  spends only what its actions ask for instead of riding the cap, which
  at moderate load buys lower energy at the same (met) SLA.

Cells run through :func:`repro.parallel.run_grid` — fan-out, result
cache and per-cell ``--trace-dir`` traces (``node``-tagged, for
``deeppower trace summarize --group-by node``).  Fault plans and hier
configs ride each spec's cache payload, so chaos and learned cells never
collide with clean cells of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.reporting import format_table
from ..cluster.sim import FleetSpec, fleet_power_budget, fleet_trace
from ..faults.fleet import standard_chaos_plan
from ..parallel.grid import run_grid
from .hier import hier_config
from .scenarios import active_profile, evaluation_trace

__all__ = [
    "FleetGrid", "GRIDS", "run_fleet_grid", "render_fleet_grid",
    "fleet_dimensions", "FLEET_ROUTINGS", "FLEET_POLICIES", "FLEET_LOAD",
    "CAP_FRACTION", "CHAOS_INTENSITIES", "CHAOS_POLICY", "HIER_COORDINATORS",
    "HIER_EXPERIMENT_POLICIES", "HIER_LOAD",
]

#: Display order (dict insertion order is the table order).
FLEET_ROUTINGS = ("round-robin", "jsq", "power-aware")
FLEET_POLICIES = ("baseline", "retail", "gemini")

#: Mean fleet utilisation the shared diurnal trace is scaled to.  Chosen so
#: the uncapped fleet meets the SLA with headroom while the capped column
#: shows a measurable (not degenerate) tail cost of losing turbo.
FLEET_LOAD = 0.45
#: Budget position within the fleet's controllable power range.
CAP_FRACTION = 0.7

#: Fault intensities swept; 0.0 is the no-fault baseline row.
CHAOS_INTENSITIES = (0.0, 1.0)
#: Per-node power policy for every chaos cell (prediction baseline: cheap
#: and deterministic, so the grid isolates routing/failover effects).
CHAOS_POLICY = "retail"

#: Display order of the coordinator column.
HIER_COORDINATORS = ("learned", "heuristic", "uncapped")
#: Node power policies compared under each coordinator.
HIER_EXPERIMENT_POLICIES = ("baseline", "controller")
#: Mean fleet utilisation.  Lower than the fleet grid's 0.45 so both
#: capped coordinators can meet the SLA — the comparison is then energy at
#: equal attainment, not two different SLA misses.
HIER_LOAD = 0.35

#: One grid cell: its row keys (the table's leading columns) and the
#: per-cell :class:`FleetSpec` keyword arguments.
Cell = Tuple[dict, dict]


def fleet_dimensions(profile) -> tuple:
    """(num_nodes, cores_per_node) for a profile (8 nodes at full scale)."""
    if profile.is_full:
        return 8, 4
    return 4, 2


@dataclass(frozen=True)
class FleetGrid:
    """A named fleet experiment: its load, its cells and its table.

    ``cells(label, num_nodes, duration, seed, budget)`` returns the grid's
    :data:`Cell` list; ``label`` is the ``<profile>-<grid>`` prefix every
    cell label starts with.  ``columns`` name entries of
    :data:`_KEY_COLUMNS` (read from the row keys, shown on error rows too)
    followed by entries of :data:`_METRIC_COLUMNS`.  ``title`` is
    formatted with the result dict after the shared shape prefix.
    """

    load: float
    cells: Callable[..., List[Cell]]
    columns: Tuple[str, ...]
    title: str
    #: Whether the result records the cap budget (grids with capped rows).
    capped: bool = True
    #: Optional closing line computed from the whole result.
    verdict: Optional[Callable[[dict], str]] = None


def _fleet_cells(label, num_nodes, duration, seed, budget) -> List[Cell]:
    cells = [
        ({"routing": routing, "policy": policy, "cap_watts": None},
         dict(policy=policy, routing=routing, label=f"{label}-{routing}"))
        for routing in FLEET_ROUTINGS
        for policy in FLEET_POLICIES
    ]
    # The capped column: the power-aware router is the one designed to
    # cooperate with the coordinator (throttled nodes shed traffic).
    cells += [
        ({"routing": "power-aware", "policy": policy, "cap_watts": budget},
         dict(policy=policy, routing="power-aware", power_cap_watts=budget,
              label=f"{label}-capped"))
        for policy in FLEET_POLICIES
    ]
    return cells


def _chaos_cells(label, num_nodes, duration, seed, budget) -> List[Cell]:
    def cell(routing: str, intensity: float, failover: bool) -> Cell:
        plan = standard_chaos_plan(intensity, num_nodes, duration, seed=seed)
        return (
            {"routing": routing, "intensity": intensity, "failover": failover},
            dict(
                policy=CHAOS_POLICY,
                routing=routing,
                fault_plan=None if plan.is_empty else plan,
                # None = auto: failover on exactly when a plan is active.
                health_aware=None if failover else False,
                label=f"{label}-{routing}-i{intensity:g}"
                + ("" if failover else "-nofailover"),
            ),
        )

    cells = [
        cell(routing, intensity, True)
        for routing in FLEET_ROUTINGS
        for intensity in CHAOS_INTENSITIES
    ]
    # No-failover ablation at top intensity: the router keeps addressing
    # dead nodes, so the cost of losing health-aware dispatch is measured
    # against the failover row of the same routing.
    worst = max(CHAOS_INTENSITIES)
    return cells + [cell(routing, worst, False) for routing in FLEET_ROUTINGS]


def _hier_cells(label, num_nodes, duration, seed, budget) -> List[Cell]:
    cells = []
    for policy in HIER_EXPERIMENT_POLICIES:
        for coordinator in HIER_COORDINATORS:
            cap = None if coordinator == "uncapped" else budget
            cells.append((
                {"coordinator": coordinator, "policy": policy, "cap_watts": cap},
                dict(
                    policy=policy,
                    routing="power-aware",
                    power_cap_watts=cap,
                    hier=hier_config() if coordinator == "learned" else None,
                    label=f"{label}-{coordinator}",
                ),
            ))
    return cells


def _hier_verdict(result: dict) -> str:
    """Cells where the learned coordinator spends no more energy than the
    heuristic at equal-or-better SLA attainment."""
    by_cell = {
        (row["policy"], row["coordinator"]): (
            row["metrics"]["fleet"]["energy_joules"],
            bool(row["metrics"]["fleet"]["sla_met"]),
        )
        for row in result["rows"]
        if "error" not in row
    }
    wins = []
    for policy in dict.fromkeys(r["policy"] for r in result["rows"]):
        learned = by_cell.get((policy, "learned"))
        heur = by_cell.get((policy, "heuristic"))
        if learned is None or heur is None:
            continue
        if learned[0] <= heur[0] and learned[1] >= heur[1]:
            saved = (1.0 - learned[0] / heur[0]) if heur[0] else 0.0
            wins.append(f"{policy} ({saved:.1%} energy saved)")
    if wins:
        return "learned <= heuristic energy at equal-or-better SLA: " + ", ".join(wins)
    return "learned coordinator did not beat the heuristic on any cell"


_BUDGET_TITLE = (
    "profile={profile}, seed={seed}, budget={budget_watts:.1f} W (capped rows)"
)

#: The named fleet grids behind the ``fleet``, ``chaos`` and ``hier``
#: experiments.
GRIDS: Dict[str, FleetGrid] = {
    "fleet": FleetGrid(
        load=FLEET_LOAD,
        cells=_fleet_cells,
        columns=("routing", "policy", "cap(W)", "power(W)", "peak(W)",
                 "energy(J)", "p99(ms)", "p99/SLA", "timeout", "imbalance",
                 "cap_ok"),
        title=_BUDGET_TITLE,
    ),
    "chaos": FleetGrid(
        load=FLEET_LOAD,
        cells=_chaos_cells,
        columns=("routing", "intensity", "failover", "power(W)", "energy(J)",
                 "p99(ms)", "p99/SLA", "sla", "timeout", "crashes", "redisp",
                 "dropped", "avail"),
        title=(
            f"policy={CHAOS_POLICY}, profile={{profile}}, seed={{seed}} "
            "(failover=NO rows: health-aware dispatch disabled)"
        ),
        capped=False,
    ),
    "hier": FleetGrid(
        load=HIER_LOAD,
        cells=_hier_cells,
        columns=("policy", "coordinator", "cap(W)", "power(W)", "energy(J)",
                 "p99(ms)", "p99/SLA", "sla_met", "timeout", "imbalance",
                 "decisions", "cap_ok"),
        title=_BUDGET_TITLE,
        verdict=_hier_verdict,
    ),
}


def run_fleet_grid(
    grid: str,
    *,
    full: Optional[bool] = None,
    jobs: int = 1,
    result_cache=None,
    trace_dir: Optional[str] = None,
    num_nodes: Optional[int] = None,
    app_name: str = "xapian",
    seed: Optional[int] = None,
) -> dict:
    """Run the named fleet grid (a key of :data:`GRIDS`).

    Returns a plain-data dict (checkpoint/cache friendly):
    ``{"profile", "app", "num_nodes", "cores_per_node", ["budget_watts",]
    "seed", "rows": [{<row keys>, metrics | error}, ...]}``, with
    ``budget_watts`` present for grids that have capped rows.
    """
    fleet_grid = GRIDS[grid]
    profile = active_profile(full)
    default_nodes, cores_per_node = fleet_dimensions(profile)
    n_nodes = num_nodes if num_nodes is not None else default_nodes
    run_seed = profile.seed if seed is None else seed
    base = evaluation_trace(profile)
    trace = fleet_trace(base, app_name, n_nodes, cores_per_node, load=fleet_grid.load)
    budget = fleet_power_budget(n_nodes, cores_per_node, fraction=CAP_FRACTION)

    cells = fleet_grid.cells(
        f"{profile.name}-{grid}", n_nodes, float(trace.duration), run_seed, budget
    )
    specs = [
        FleetSpec(
            app=app_name,
            trace=trace,
            num_nodes=n_nodes,
            cores_per_node=cores_per_node,
            seed=run_seed,
            **kwargs,
        )
        for _, kwargs in cells
    ]
    outcomes = run_grid(specs, jobs=jobs, cache=result_cache, trace_dir=trace_dir)
    rows = []
    for (keys, _), outcome in zip(cells, outcomes):
        row = dict(keys)
        if outcome.ok:
            row["metrics"] = outcome.metrics.as_dict()
        else:
            row["error"] = outcome.error
        rows.append(row)
    result = {
        "profile": profile.name,
        "app": app_name,
        "num_nodes": n_nodes,
        "cores_per_node": cores_per_node,
    }
    if fleet_grid.capped:
        result["budget_watts"] = budget
    result.update(seed=run_seed, rows=rows)
    return result


def _fmt(value, spec: str = "{:.2f}") -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not math.isfinite(value):
        return "n/a"
    return spec.format(value)


def _p99_over_sla(fleet: dict) -> str:
    sla = fleet["sla"]
    return _fmt(fleet["tail_latency"] / sla if sla else float("nan"))


#: Leading columns, read from a row's keys (shown on error rows too).
_KEY_COLUMNS: Dict[str, Callable[[dict], object]] = {
    "routing": lambda row: row["routing"],
    "policy": lambda row: row["policy"],
    "coordinator": lambda row: row["coordinator"],
    "cap(W)": lambda row: _fmt(row["cap_watts"], "{:.1f}"),
    "intensity": lambda row: _fmt(row["intensity"], "{:.1f}"),
    "failover": lambda row: "yes" if row["failover"] else "NO",
}

#: Result columns, read from a row's metrics dict.
_METRIC_COLUMNS: Dict[str, Callable[[dict], object]] = {
    "power(W)": lambda m: _fmt(m["fleet"]["avg_power_watts"], "{:.1f}"),
    "peak(W)": lambda m: _fmt(m["max_window_power"], "{:.1f}"),
    "energy(J)": lambda m: _fmt(m["fleet"]["energy_joules"], "{:.0f}"),
    "p99(ms)": lambda m: _fmt(m["fleet"]["tail_latency"] * 1e3),
    "p99/SLA": lambda m: _p99_over_sla(m["fleet"]),
    "sla": lambda m: "met" if m["fleet"]["sla_met"] else "MISS",
    "sla_met": lambda m: "yes" if m["fleet"]["sla_met"] else "NO",
    "timeout": lambda m: _fmt(m["fleet"]["timeout_rate"], "{:.2%}"),
    "imbalance": lambda m: _fmt(m["routed_imbalance"]),
    "crashes": lambda m: m["crashes"],
    "redisp": lambda m: m["redispatches"],
    "dropped": lambda m: m["dropped_requests"],
    "avail": lambda m: _fmt(m["fleet_availability"], "{:.3f}"),
    "decisions": lambda m: str(m.get("hier_decisions", 0)),
    "cap_ok": lambda m: "yes" if m["cap_ok"] else "NO",
}


def render_fleet_grid(grid: str, result: dict) -> str:
    """The named grid's comparison table, under its title line."""
    fleet_grid = GRIDS[grid]
    keys = [c for c in fleet_grid.columns if c in _KEY_COLUMNS]
    values = fleet_grid.columns[len(keys):]
    table_rows = []
    for row in result["rows"]:
        cells = [_KEY_COLUMNS[c](row) for c in keys]
        if "error" in row:
            cells += ["ERROR"] * len(values)
        else:
            cells += [_METRIC_COLUMNS[c](row["metrics"]) for c in values]
        table_rows.append(cells)
    lines = [
        f"{grid}: {result['num_nodes']} nodes x {result['cores_per_node']} "
        f"cores, app={result['app']}, " + fleet_grid.title.format(**result),
        format_table(list(fleet_grid.columns), table_rows, "{:.2f}"),
    ]
    if fleet_grid.verdict is not None:
        lines.append(fleet_grid.verdict(result))
    return "\n".join(lines)
