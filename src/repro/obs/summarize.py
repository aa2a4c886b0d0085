"""Rebuild Fig 8-style per-interval tables from a run trace.

The paper's Fig 8 reads DeepPower's behaviour as per-second time series:
reward, chosen (BaseFreq, ScalingCoef), resulting average frequency,
queue length and power.  A JSONL trace written with ``--trace-out``
carries exactly those quantities in its ``drl-step`` and
``controller-window`` events; :func:`summarize_trace` joins them back
into one row per DRL interval, bit-identical to the in-memory
:class:`~repro.core.runtime.StepRecord` history of the run that wrote
the trace (floats round-trip exactly through JSON).

``deeppower trace summarize <file>`` renders the table plus an event
census and the run/episode summaries found in the trace.

Both summarizers are **single-pass and bounded-memory** (ISSUE 9): the
fleet view keeps O(nodes) running aggregates (last-window snapshot plus
streaming count/peak/mean per node, streaming power-cap stats) instead of
retaining every ``node-window`` event, and the per-interval join holds
only a sliding window of recent steps (:data:`DEFAULT_JOIN_WINDOW`)
rather than the whole table's worth of join state — summarizing a
multi-gigabyte fleet trace peaks at megabytes of RSS, and the rendered
output is byte-identical to the pre-streaming implementation.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..analysis.reporting import format_table
from .trace import read_trace

__all__ = [
    "TraceSummary",
    "summarize_trace",
    "render_summary",
    "FleetTraceSummary",
    "summarize_fleet_trace",
    "render_fleet_summary",
]

#: Columns of the per-interval table, in render order.
INTERVAL_COLUMNS = (
    "episode", "step", "t", "reward", "r_energy", "r_timeout", "r_queue",
    "base_freq", "scaling_coef", "avg_freq", "queue_len", "rps", "power_w",
    "ticks", "dvfs_switches",
)

#: ``controller-window`` <-> ``drl-step`` join horizon: a window event may
#: arrive up to this many steps after its step event and still join.  In
#: every emitter the window trails its step by at most a handful of
#: events, so the bound only exists to keep join state O(1) instead of
#: O(steps) on production-volume traces.
DEFAULT_JOIN_WINDOW = 4096


def _is_number(value: Any) -> bool:
    """True for real JSON numbers.  ``bool`` is an ``int`` subclass in
    python, so an explicit exclusion keeps ``True`` from summarizing as
    the number 1 (a boolean latency once rendered as 1000.0 ms)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass
class TraceSummary:
    """Everything :func:`summarize_trace` extracts from one trace file."""

    path: str
    meta: Dict[str, Any] = field(default_factory=dict)
    #: Event-kind census over the whole file.
    counts: Dict[str, int] = field(default_factory=dict)
    #: One row per DRL interval (keys: :data:`INTERVAL_COLUMNS`).
    intervals: List[Dict[str, Any]] = field(default_factory=list)
    #: ``run-summary`` metric dicts, in order of appearance.
    run_summaries: List[Dict[str, Any]] = field(default_factory=list)
    #: ``episode-end`` stats, in order of appearance.
    episodes: List[Dict[str, Any]] = field(default_factory=list)
    #: ``run-warning`` events (degenerate runs surface here).
    warnings: List[Dict[str, Any]] = field(default_factory=list)
    #: Control-plane (bus) aggregation — empty for fault-free runs.
    #: Keys: ``drops`` (per channel), ``drop_reasons`` (fault / partition /
    #: shed), ``retries``, ``stale_windows``, ``max_consecutive_stale``,
    #: ``deadline_misses`` (per side), ``degraded_intervals``.
    control: Dict[str, Any] = field(default_factory=dict)


def summarize_trace(
    path: str, strict: bool = True, join_window: int = DEFAULT_JOIN_WINDOW
) -> TraceSummary:
    """Parse a trace and rebuild the per-interval table.

    ``drl-step`` events provide reward/state/action/queue/power;
    ``controller-window`` events (matched by episode + step, within the
    last ``join_window`` steps) contribute tick counts, window frequency
    stats and DVFS switch counts.  Lossy-bus runs additionally feed the
    ``control`` aggregation from ``bus-drop``, ``stale-window``,
    ``cmd-retry`` and ``deadline-miss`` events (degraded ``drl-step``
    events carry ``state: null`` and NaN telemetry; they appear in the
    interval table like any other step).
    """
    if join_window < 1:
        raise ValueError(f"join_window must be >= 1, got {join_window}")
    summary = TraceSummary(path=path)
    episode: Optional[int] = None
    # (episode, step) -> row, for joining controller windows onto steps.
    # Bounded: only the newest `join_window` steps stay joinable, so the
    # join state is O(1) in trace length (the rows themselves live on in
    # summary.intervals regardless).
    by_step: "OrderedDict[tuple, Dict[str, Any]]" = OrderedDict()

    def control_bucket(key: str, sub: Any) -> None:
        bucket = summary.control.setdefault(key, {})
        bucket[sub] = bucket.get(sub, 0) + 1

    for event in read_trace(path, strict=strict):
        kind = event.get("kind", "?")
        summary.counts[kind] = summary.counts.get(kind, 0) + 1
        if kind == "trace-header":
            summary.meta = event.get("meta", {})
        elif kind == "episode-start":
            episode = event.get("episode")
        elif kind == "bus-drop":
            control_bucket("drops", event.get("channel", "?"))
            control_bucket("drop_reasons", event.get("reason", "?"))
        elif kind == "cmd-retry":
            summary.control["retries"] = summary.control.get("retries", 0) + 1
        elif kind == "stale-window":
            summary.control["stale_windows"] = (
                summary.control.get("stale_windows", 0) + 1
            )
            summary.control["max_consecutive_stale"] = max(
                summary.control.get("max_consecutive_stale", 0),
                event.get("consecutive", 0) or 0,
            )
        elif kind == "deadline-miss":
            control_bucket("deadline_misses", event.get("side", "?"))
        elif kind == "drl-step":
            reward = event.get("reward") or {}
            # A degraded step can carry a short (or empty) action array;
            # pad with NaN instead of letting action[1] raise IndexError.
            action = list(event.get("action") or ())
            while len(action) < 2:
                action.append(float("nan"))
            row = {
                "episode": episode,
                "step": event.get("step"),
                "t": event.get("t"),
                "reward": reward.get("total", float("nan")),
                "r_energy": reward.get("energy", float("nan")),
                "r_timeout": reward.get("timeout", float("nan")),
                "r_queue": reward.get("queue", float("nan")),
                "base_freq": action[0],
                "scaling_coef": action[1],
                "avg_freq": event.get("avg_freq"),
                "queue_len": event.get("queue_len"),
                "rps": event.get("rps"),
                "power_w": event.get("power_w"),
                "ticks": None,
                "dvfs_switches": None,
            }
            summary.intervals.append(row)
            by_step[(episode, event.get("step"))] = row
            while len(by_step) > join_window:
                by_step.popitem(last=False)
            if event.get("degraded"):
                summary.control["degraded_intervals"] = (
                    summary.control.get("degraded_intervals", 0) + 1
                )
        elif kind == "controller-window":
            row = by_step.get((episode, event.get("step")))
            if row is not None:
                row["ticks"] = event.get("ticks")
                row["dvfs_switches"] = event.get("dvfs_switches")
        elif kind == "run-summary":
            summary.run_summaries.append(event.get("metrics", {}))
        elif kind == "episode-end":
            summary.episodes.append(
                {k: v for k, v in event.items() if k not in ("kind", "t")}
            )
        elif kind == "run-warning":
            summary.warnings.append(event)
    return summary


def _cell(value: Any) -> Any:
    return "-" if value is None else value


def render_summary(
    summary: TraceSummary,
    limit: Optional[int] = None,
    float_fmt: str = "{:.4f}",
) -> str:
    """Text rendering: census, warnings, per-interval table, episodes."""
    lines = [f"trace: {summary.path}"]
    if summary.meta:
        lines.append("meta: " + ", ".join(f"{k}={v}" for k, v in sorted(summary.meta.items())))
    lines.append(
        "events: " + ", ".join(f"{k}={v}" for k, v in sorted(summary.counts.items()))
    )
    if summary.control:
        parts = []
        for key in (
            "drops", "drop_reasons", "retries", "stale_windows",
            "max_consecutive_stale", "deadline_misses", "degraded_intervals",
        ):
            value = summary.control.get(key)
            if value is None:
                continue
            if isinstance(value, dict):
                value = "/".join(f"{k}={v}" for k, v in sorted(value.items()))
            parts.append(f"{key}={value}")
        lines.append("control plane: " + ", ".join(parts))
    for w in summary.warnings:
        lines.append(f"WARNING: {w.get('warning', '?')}: {w.get('message', '')}")
    rows = summary.intervals
    shown = rows if limit is None or len(rows) <= limit else rows[-limit:]
    if shown:
        if shown is not rows:
            lines.append(f"(last {len(shown)} of {len(rows)} intervals)")
        lines.append("")
        lines.append(
            format_table(
                list(INTERVAL_COLUMNS),
                [[_cell(r[c]) for c in INTERVAL_COLUMNS] for r in shown],
                float_fmt,
            )
        )
    else:
        lines.append("(no drl-step events in trace)")
    if summary.episodes:
        headers = sorted(summary.episodes[0])
        lines.append("")
        lines.append("episodes:")
        lines.append(
            format_table(
                headers,
                [[_cell(e.get(h)) for h in headers] for e in summary.episodes],
                float_fmt,
            )
        )
    for m in summary.run_summaries:
        lines.append("")
        lines.append(
            "run summary: "
            + ", ".join(f"{k}={m[k]}" for k in sorted(m))
        )
    return "\n".join(lines)


# ----------------------------------------------------------------- fleet view

@dataclass
class FleetTraceSummary:
    """Per-node / fleet-wide aggregation of a node-tagged fleet trace."""

    path: str
    meta: Dict[str, Any] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    #: The ``fleet-start`` event (fleet dimensions, policy, routing, cap).
    fleet_start: Dict[str, Any] = field(default_factory=dict)
    #: One aggregated row per node id, sorted by node.
    nodes: List[Dict[str, Any]] = field(default_factory=list)
    #: Fleet-wide row (from ``fleet-summary``), empty if the trace is
    #: truncated before run end.
    fleet: Dict[str, Any] = field(default_factory=dict)
    #: Power-cap coordination stats (empty when the run was uncapped).
    powercap: Dict[str, Any] = field(default_factory=dict)
    #: Hierarchical-coordinator stats from ``coordinator-decision`` events
    #: (empty when the run used the heuristic coordinator — keeping
    #: non-hier renderings byte-identical to the pre-hier renderer).
    hier: Dict[str, Any] = field(default_factory=dict)
    #: Fault/chaos stats (crashes, redispatches, drops, partitions);
    #: empty for immortal fleets.
    faults: Dict[str, Any] = field(default_factory=dict)
    warnings: List[Dict[str, Any]] = field(default_factory=list)
    #: Streaming per-node ``node-window`` telemetry aggregates, keyed by
    #: node id: ``{"windows", "peak_power_w", "mean_power_w"}``.  Not part
    #: of the rendered table (which stays byte-identical to the
    #: pre-streaming renderer) — programmatic consumers and ``trace
    #: query`` tooling read it directly.
    telemetry: Dict[Any, Dict[str, Any]] = field(default_factory=dict)


def _node_row_from_metrics(node: int, metrics: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "node": node,
        "energy_j": metrics.get("energy_joules"),
        "power_w": metrics.get("avg_power_watts"),
        "completed": metrics.get("completed"),
        "timeouts": metrics.get("timeouts"),
        "p95_ms": _scale_ms(metrics.get("p95_latency")),
        "p99_ms": _scale_ms(metrics.get("tail_latency")),
        "mean_tail_ratio": metrics.get("mean_tail_ratio"),
        "sla_met": metrics.get("sla_met"),
    }


def _scale_ms(seconds: Any) -> Any:
    return seconds * 1e3 if _is_number(seconds) else seconds


def summarize_fleet_trace(path: str, strict: bool = True) -> FleetTraceSummary:
    """Aggregate a fleet trace per node and fleet-wide, in one bounded pass.

    Authoritative per-node rows come from ``node-summary`` events (energy,
    p95/p99 tail latencies, SLA violations); for traces truncated before
    run end (no summaries yet), rows are reconstructed from the last
    ``node-window`` telemetry seen per node, with latency columns absent.
    ``powercap-window`` events contribute budget-compliance stats.

    Memory is O(nodes), not O(events): per node only the *last*
    ``node-window`` snapshot plus streaming count/peak/mean power are
    retained, and power-cap stats stream as count/sum/peak — a trace with
    10x more windows summarizes in the same peak RSS (asserted by
    ``tests/test_obs_streaming_summarize.py``).
    """
    summary = FleetTraceSummary(path=path)
    # Per-node streaming window aggregates (the O(nodes) replacement for
    # the retain-every-window list the seed implementation kept).
    win_count: Dict[Any, int] = {}
    win_last: Dict[Any, Dict[str, Any]] = {}
    win_power_peak: Dict[Any, float] = {}
    win_power_sum: Dict[Any, float] = {}
    win_power_n: Dict[Any, int] = {}
    node_rows: Dict[Any, Dict[str, Any]] = {}
    routed: Dict[Any, Any] = {}
    # Streaming power-cap stats (count/sum/peak over finite window totals).
    cap_windows = 0
    cap_finite_n = 0
    cap_finite_sum: float = 0
    cap_peak: Optional[float] = None
    cap_budget: Optional[float] = None
    cap_throttled = 0
    # Streaming hierarchical-coordinator stats (O(1) like the cap stats).
    hier_decisions = 0
    hier_learned = 0
    hier_reward_n = 0
    hier_reward_sum: float = 0
    hier_updates: Optional[int] = None
    hier_fed_rounds: Optional[int] = None
    downs: Dict[Any, int] = {}
    down_since: Dict[Any, float] = {}
    downtime: Dict[Any, float] = {}
    avail: Dict[Any, Any] = {}
    fault_counts = {
        "crashes": 0,
        "redispatches": 0,
        "drops": 0,
        "partitions": 0,
        "degraded": 0,
    }
    for event in read_trace(path, strict=strict):
        kind = event.get("kind", "?")
        summary.counts[kind] = summary.counts.get(kind, 0) + 1
        if kind == "trace-header":
            summary.meta = event.get("meta", {})
        elif kind == "fleet-start":
            summary.fleet_start = {
                k: v for k, v in event.items() if k not in ("kind", "t")
            }
        elif kind == "node-window":
            node = event.get("node")
            win_count[node] = win_count.get(node, 0) + 1
            win_last[node] = event
            power = event.get("power_w")
            if _is_number(power) and power == power:
                win_power_n[node] = win_power_n.get(node, 0) + 1
                win_power_sum[node] = win_power_sum.get(node, 0) + power
                peak = win_power_peak.get(node)
                if peak is None or power > peak:
                    win_power_peak[node] = power
        elif kind == "node-summary":
            node = event.get("node")
            node_rows[node] = _node_row_from_metrics(node, event.get("metrics", {}))
            routed[node] = event.get("routed")
            if event.get("availability") is not None:
                avail[node] = event.get("availability")
        elif kind == "node-down":
            node = event.get("node")
            downs[node] = downs.get(node, 0) + 1
            down_since[node] = event.get("t", 0.0)
            fault_counts["crashes"] += 1
        elif kind == "node-up":
            node = event.get("node")
            t = event.get("t", 0.0)
            downtime[node] = downtime.get(node, 0.0) + max(
                0.0, t - down_since.pop(node, t)
            )
        elif kind == "redispatch":
            fault_counts["redispatches"] += 1
        elif kind == "request-drop":
            fault_counts["drops"] += 1
        elif kind == "telemetry-partition":
            fault_counts["partitions"] += 1
        elif kind == "node-degraded":
            fault_counts["degraded"] += 1
        elif kind == "fleet-summary":
            metrics = event.get("metrics", {})
            summary.fleet = _node_row_from_metrics("fleet", metrics)
            summary.fleet["routed"] = sum(event.get("routed", []) or [0])
            summary.fleet["windows"] = None
            if event.get("fleet_availability") is not None:
                summary.fleet["avail"] = event.get("fleet_availability")
            if event.get("power_cap_watts") is not None:
                for key, src in (
                    ("budget_w", "power_cap_watts"),
                    ("peak_w", "max_window_power"),
                    ("mean_w", "mean_window_power"),
                    ("throttled", "throttled_windows"),
                    ("cap_ok", "cap_ok"),
                ):
                    summary.powercap[key] = event.get(src)
        elif kind == "powercap-window":
            total = event.get("total_w", float("nan"))
            cap_windows += 1
            # Accept any real number: watt totals that round-tripped
            # through JSON as ints (e.g. an exact 100) count toward
            # peak/mean exactly like their float twins; bools do not.
            if _is_number(total) and total == total:
                cap_finite_n += 1
                cap_finite_sum += total
                if cap_peak is None or total > cap_peak:
                    cap_peak = total
            cap_budget = event.get("budget_w", cap_budget)
            if event.get("throttled"):
                cap_throttled += 1
        elif kind == "coordinator-decision":
            hier_decisions += 1
            if event.get("learned"):
                hier_learned += 1
            reward = event.get("reward")
            if _is_number(reward) and reward == reward:
                hier_reward_n += 1
                hier_reward_sum += reward
            if event.get("updates") is not None:
                hier_updates = event.get("updates")
            if event.get("fed_rounds") is not None:
                hier_fed_rounds = event.get("fed_rounds")
        elif kind == "run-warning":
            summary.warnings.append(event)

    node_ids = sorted(set(win_count) | set(node_rows), key=lambda n: (n is None, n))
    for node in node_ids:
        row = node_rows.get(node)
        if row is None:
            # Truncated trace: fall back to the last telemetry window
            # (counters there are cumulative).
            last = win_last[node]
            row = {
                "node": node,
                "energy_j": None,
                "power_w": last.get("power_w"),
                "completed": last.get("completed"),
                "timeouts": last.get("timeouts"),
                "p95_ms": None,
                "p99_ms": None,
                "mean_tail_ratio": None,
                "sla_met": None,
            }
            routed.setdefault(node, last.get("routed"))
        row["routed"] = routed.get(node)
        row["windows"] = win_count.get(node, 0)
        row["downs"] = downs.get(node, 0)
        if node in avail:
            row["avail"] = avail[node]
        else:
            # Truncated trace: rebuild availability from the node-down /
            # node-up events seen so far (open outages run to trace end).
            duration = summary.fleet_start.get("trace_duration")
            if duration:
                dt = downtime.get(node, 0.0)
                if node in down_since:
                    dt += max(0.0, duration - down_since[node])
                row["avail"] = 1.0 - min(dt, duration) / duration
            else:
                row["avail"] = None
        summary.nodes.append(row)
        n = win_power_n.get(node, 0)
        summary.telemetry[node] = {
            "windows": win_count.get(node, 0),
            "peak_power_w": win_power_peak.get(node),
            "mean_power_w": win_power_sum[node] / n if n else None,
        }

    if summary.fleet and "downs" not in summary.fleet:
        summary.fleet["downs"] = fault_counts["crashes"]
    if any(fault_counts.values()):
        summary.faults = dict(fault_counts)
    if cap_windows:
        summary.powercap["windows"] = cap_windows
        summary.powercap.setdefault("budget_w", cap_budget)
        if cap_finite_n:
            summary.powercap.setdefault("peak_w", cap_peak)
            summary.powercap.setdefault("mean_w", cap_finite_sum / cap_finite_n)
        summary.powercap.setdefault("throttled", cap_throttled)
    if hier_decisions:
        summary.hier["decisions"] = hier_decisions
        summary.hier["learned"] = hier_learned
        if hier_reward_n:
            summary.hier["mean_reward"] = hier_reward_sum / hier_reward_n
        if hier_updates is not None:
            summary.hier["updates"] = hier_updates
        if hier_fed_rounds:
            summary.hier["fed_rounds"] = hier_fed_rounds
    return summary


#: Columns of the per-node table, in render order.
NODE_COLUMNS = (
    "node", "routed", "windows", "power_w", "energy_j", "completed",
    "timeouts", "p95_ms", "p99_ms", "mean_tail_ratio", "sla_met",
    "downs", "avail",
)


def render_fleet_summary(
    summary: FleetTraceSummary, float_fmt: str = "{:.2f}"
) -> str:
    """Text rendering: fleet header, per-node table + fleet row, cap stats."""
    lines = [f"trace: {summary.path}"]
    if summary.meta:
        lines.append(
            "meta: " + ", ".join(f"{k}={v}" for k, v in sorted(summary.meta.items()))
        )
    lines.append(
        "events: " + ", ".join(f"{k}={v}" for k, v in sorted(summary.counts.items()))
    )
    if summary.fleet_start:
        lines.append(
            "fleet: "
            + ", ".join(f"{k}={v}" for k, v in sorted(summary.fleet_start.items()))
        )
    for w in summary.warnings:
        lines.append(f"WARNING: {w.get('warning', '?')}: {w.get('message', '')}")
    rows = list(summary.nodes)
    if summary.fleet:
        rows.append(summary.fleet)
    if not rows:
        lines.append(
            "(no node-tagged events in trace; was this a fleet run? "
            "try plain `trace summarize`)"
        )
        return "\n".join(lines)
    lines.append("")
    lines.append(
        format_table(
            list(NODE_COLUMNS),
            [[_cell(r.get(c)) for c in NODE_COLUMNS] for r in rows],
            float_fmt,
        )
    )
    if summary.powercap:
        pc = summary.powercap
        lines.append("")
        lines.append(
            "powercap: " + ", ".join(f"{k}={v}" for k, v in sorted(pc.items()))
        )
    if summary.hier:
        lines.append("")
        lines.append(
            "hier: "
            + ", ".join(f"{k}={v}" for k, v in sorted(summary.hier.items()))
        )
    if summary.faults:
        lines.append("")
        lines.append(
            "faults: "
            + ", ".join(f"{k}={v}" for k, v in sorted(summary.faults.items()))
        )
    return "\n".join(lines)
