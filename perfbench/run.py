#!/usr/bin/env python3
"""Repo benchmark: simulator speed and QoS on four fleet/DRL workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-peak-capped --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
layer ledger (``perfbench/layers.py``) and prints every per-layer metric.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Each rep is a fresh ``python3`` process (one thread, BLAS pinned to one
thread) that imports the simulator from ``src/``, builds one workload and
plays it.  The parent runs reps until ``--seconds`` are spent, reports
medians of the host metrics and checks that every rep passed every
correctness check and produced the same digest.  See
``perfbench/NOTES.md`` for the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fewest untraced reps per untraced run, even if they overrun ``--seconds``.
MIN_REPS = 2
#: Set-up-only probes per untraced run (each rep adds one more sample).
SETUP_PROBES = 3
#: Wall-clock limit of one child process, and of a whole run.
CHILD_TIMEOUT_S = 120.0
RUN_TIMEOUT_S = 170.0

END_TO_END = (
    ("node_s_per_s", "node-s/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_over_sla", "ratio"),
    ("p99_over_sla", "ratio"),
    ("p999_over_sla", "ratio"),
    ("sla_miss_frac", "fraction"),
    ("energy_j_per_req", "J"),
)
SIM_STATS = (
    "p50_over_sla", "p99_over_sla", "p999_over_sla", "sla_miss_frac",
    "energy_j_per_req",
)


# --------------------------------------------------------------------- child

def child(args: argparse.Namespace) -> int:
    """One rep: build, play, check; print one JSON line."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    mode = args.child
    ledger = None
    if mode == "traced":
        import layers

        ledger = layers.Ledger()
        ledger.install()
    import calibrate
    import workloads
    from repro.sim.engine import Engine

    rep = workloads.Rep(args.workload, args.seed, args.tmpdir)
    chunk = workloads.CHUNK_SIM_S[args.workload]
    run_until = Engine.run_until
    clock = None
    setup = {}

    def chunked(self, until, **kw):
        # Same events in the same order as one call; the pauses between
        # chunks only let the clock time its yardstick.
        t = self.now
        while True:
            t = min(until, t + chunk)
            run_until(self, t, **(kw if t >= until else {}))
            clock.lap()
            if t >= until:
                return

    def first_event(self, *a, **kw):
        # Set-up ends when the first simulated event is about to run.
        nonlocal clock
        raw = time.monotonic() - args.t0
        setup.update(
            setup_raw_s=raw, setup_s=raw * calibrate.NOMINAL_S / calibrate.speed()
        )
        if mode == "setup":
            print(json.dumps(setup), flush=True)
            os._exit(0)
        if ledger is not None:
            ledger.reset()
        Engine.run_until = chunked
        clock = calibrate.Clock()
        return chunked(self, *a, **kw)

    Engine.run_until = first_event
    summarize = None
    if ledger is not None:
        from repro.obs.summarize import summarize_fleet_trace

        summarize = ledger.timed_summarize(summarize_fleet_trace)
    rep.run(summarize)
    clock.lap()
    out = rep.outcome()
    out.update(
        setup,
        wall_s=clock.raw_s,
        scaled_wall_s=clock.scaled_s,
        yardstick_s=statistics.median(clock.yardsticks),
        node_seconds=rep.node_seconds,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if ledger is not None:
        out["ledger"] = {
            "self_s": ledger.self_s,
            "counts": ledger.counts,
            "samples": {k: _percentiles(v) for k, v in ledger.samples.items()},
        }
    print(json.dumps(out), flush=True)
    return 0


def _percentiles(values) -> dict:
    if len(values) == 0:
        return {"sum": 0.0, "p50": 0.0, "p99": 0.0}
    s = sorted(values)
    pick = lambda q: s[min(len(s) - 1, int(q * len(s)))]  # noqa: E731
    return {"sum": sum(s), "p50": pick(0.5), "p99": pick(0.99)}


# -------------------------------------------------------------------- parent

def spawn(mode: str, args: argparse.Namespace, tmpdir: str) -> dict:
    """Run one child rep; returns its JSON result or ``{"error": ...}``."""
    os.makedirs(tmpdir, exist_ok=True)
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0", REPRO_CACHE=os.path.join(tmpdir, "cache"),
    )
    t0 = time.monotonic()
    timeout = min(CHILD_TIMEOUT_S, args.deadline - t0)
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--t0", repr(t0), "--tmpdir", tmpdir,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} rep timed out", "elapsed": time.monotonic() - t0}
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return {"error": f"{mode} rep exited {proc.returncode}", "elapsed": elapsed}
    result = json.loads(lines[-1])
    result["elapsed"] = elapsed
    return result


def measure(args: argparse.Namespace) -> tuple:
    """Set-up probes, then reps until ``--seconds`` are spent."""
    start = time.monotonic()
    args.deadline = start + RUN_TIMEOUT_S
    scratch = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    probes = []
    if not args.trace:
        for i in range(SETUP_PROBES):
            probes.append(spawn("setup", args, os.path.join(scratch, f"p{i}")))
    # A traced run needs one untraced rep beside each traced one (for the
    # overhead and the digest comparison); an untraced run needs two.
    need = {"plain": 1, "traced": 1} if args.trace else {"plain": MIN_REPS}
    modes = tuple(need)
    reps = {m: [] for m in modes}
    n = 0
    while True:
        mode = modes[n % len(modes)]
        if all(len(reps[m]) >= k for m, k in need.items()):
            spent = time.monotonic() - start
            if spent + statistics.fmean(r["elapsed"] for r in reps[mode]) > args.seconds:
                break
        reps[mode].append(spawn(mode, args, os.path.join(scratch, f"r{n}")))
        n += 1
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(scratch))
    except OSError:
        pass
    return probes, reps


def verdict(probes: list, reps: dict) -> tuple:
    """(correct, attempted, failed, notes) over every measured rep."""
    everything = [r for rs in reps.values() for r in rs]
    notes = []
    errors = [r for r in probes + everything if "error" in r]
    for r in errors:
        notes.append(f"error: {r['error']}")
    good = [r for r in everything if "error" not in r]
    failed = sum(1 for r in everything if "error" in r)
    ref = good[0]["digest"] if good else None
    for r in good:
        bad = sorted(k for k, ok in r["checks"].items() if not ok)
        if r["digest"] != ref:
            bad.append("digest_matches_first_rep")
        if bad:
            failed += 1
            notes.append("failed checks: " + ", ".join(bad))
    correct = not errors and failed == 0 and bool(good)
    return correct, len(everything), failed, notes


def end_to_end(probes: list, reps: dict) -> dict:
    plain = [r for r in reps["plain"] if "error" not in r]
    first = plain[0]
    setups = [r["setup_s"] for r in probes + plain if "error" not in r]
    values = {
        "node_s_per_s": statistics.median(
            r["node_seconds"] / r["scaled_wall_s"] for r in plain
        ),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
    }
    values.update((key, first["stats"][key]) for key in SIM_STATS)
    return {
        name: {"value": values[name], "unit": unit} for name, unit in END_TO_END
    }


def per_layer(reps: dict) -> dict:
    """Per-layer metrics from the traced reps (medians of host times)."""
    traced = [r for r in reps["traced"] if "error" not in r]
    plain = [r for r in reps["plain"] if "error" not in r]
    med = lambda f: statistics.median(f(r) for r in traced)  # noqa: E731
    t = traced[0]
    facts, counts = t["facts"], t["ledger"]["counts"]
    req = facts["generated"]
    writes = counts["cpu.dvfs_writes"]
    ticks = counts["core.controller.ticks"]
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def self_s(layer):
        return med(lambda r: r["ledger"]["self_s"][layer])

    def sample(name, key, scale):
        return med(lambda r: r["ledger"]["samples"][name][key]) * scale

    put("sim.self_s", self_s("sim"), "s")
    put("sim.events_per_req", facts["engine_events"] / req, "count")
    put("sim.cancels_per_req", counts["sim.cancels"] / req, "count")
    put("workload.self_s", self_s("workload"), "s")
    put("workload.us_per_req", self_s("workload") / req * 1e6, "us")
    put("cluster.dispatch.self_s", self_s("cluster.dispatch"), "s")
    put("cluster.dispatch.us_per_req", self_s("cluster.dispatch") / req * 1e6, "us")
    put("cluster.dispatch.redispatches", facts.get("redispatches", 0), "count")
    put("cluster.dispatch.unroutable", facts.get("unroutable", 0), "count")
    put("server.self_s", self_s("server"), "s")
    put(
        "server.completion_reschedules_per_req",
        counts["server.completion_reschedules"] / req, "count",
    )
    put("server.queue_wait_ms_mean", t["stats"]["queue_wait_ms_mean"], "ms")
    put("cpu.self_s", self_s("cpu"), "s")
    put("cpu.dvfs_writes_per_req", writes / req, "count")
    put("cpu.dvfs_switches_per_req", counts["cpu.dvfs_switches"] / req, "count")
    put(
        "cpu.dvfs_useful_frac",
        counts["cpu.dvfs_switches"] / writes if writes else 0.0, "fraction",
    )
    put("cpu.rapl_reads", counts["cpu.rapl_reads"], "count")
    put("core.controller.self_s", self_s("core.controller"), "s")
    put("core.controller.ticks", ticks, "count")
    put(
        "core.controller.ticks_changed_frac",
        counts["core.controller.ticks_changed"] / ticks if ticks else 0.0,
        "fraction",
    )
    put(
        "core.controller.incl_frac",
        med(lambda r: r["ledger"]["samples"]["core.controller.tick"]["sum"] / r["wall_s"]),
        "fraction",
    )
    put("core.controller.tick_us_p50", sample("core.controller.tick", "p50", 1e6), "us")
    put("core.controller.tick_us_p99", sample("core.controller.tick", "p99", 1e6), "us")
    put("core.runtime.self_s", self_s("core.runtime"), "s")
    put("core.runtime.steps", counts["core.runtime.steps"], "count")
    put("rl.self_s", self_s("rl"), "s")
    put("rl.act_us_p50", sample("rl.act", "p50", 1e6), "us")
    put("rl.act_us_p99", sample("rl.act", "p99", 1e6), "us")
    put("rl.update_ms_p50", sample("rl.update", "p50", 1e3), "ms")
    put("rl.updates", counts["rl.updates"], "count")
    put("cluster.powercap.self_s", self_s("cluster.powercap"), "s")
    put("cluster.powercap.windows", facts.get("cap_windows", 0), "count")
    put(
        "cluster.powercap.throttled_windows",
        facts.get("throttled_windows", 0), "count",
    )
    peak = facts.get("true_peak_over_budget", math.nan)
    put(
        "cluster.powercap.true_peak_over_budget",
        0.0 if math.isnan(peak) else peak, "ratio",
    )
    put("hier.self_s", self_s("hier"), "s")
    put("hier.decisions", facts.get("hier_decisions", 0), "count")
    put("hier.updates", facts.get("hier_updates", 0), "count")
    put("cluster.lifecycle.self_s", self_s("cluster.lifecycle"), "s")
    put("cluster.lifecycle.crashes", facts.get("crashes", 0), "count")
    put(
        "cluster.lifecycle.evacuated",
        counts["cluster.lifecycle.evacuated"], "count",
    )
    put("obs.trace.self_s", self_s("obs.trace"), "s")
    put("obs.trace.events", facts["trace_events"], "count")
    put("obs.trace.bytes", facts["trace_bytes"], "bytes")
    put("obs.summarize_s", self_s("obs.summarize"), "s")
    traced_wall = med(lambda r: r["scaled_wall_s"])
    plain_wall = statistics.median(r["scaled_wall_s"] for r in plain)
    put("trace_overhead_frac", traced_wall / plain_wall - 1.0, "fraction")
    put(
        "unattributed_frac",
        med(lambda r: 1.0 - sum(r["ledger"]["self_s"].values()) / r["wall_s"]),
        "fraction",
    )
    return m


def report(args, probes, reps, metrics, notes) -> None:
    """Human-readable block (everything before the final JSON line)."""
    good = [r for rs in reps.values() for r in rs if "error" not in r]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(
        "reps: " + ", ".join(f"{len(v)} {k}" for k, v in reps.items())
        + (f", {len(probes)} set-up probes" if probes else "")
    )
    if probes:
        ok = [r for r in probes if "error" not in r]
        print(
            "set-up probes: " + " ".join(f"{r['setup_raw_s']:.3f}" for r in ok)
            + " s; at nominal host speed "
            + " ".join(f"{r['setup_s']:.3f}" for r in ok) + " s"
        )
    for mode, rs in reps.items():
        ok = [r for r in rs if "error" not in r]
        print(
            f"{mode} reps: wall " + " ".join(f"{r['wall_s']:.3f}" for r in ok)
            + " s; at nominal host speed "
            + " ".join(f"{r['scaled_wall_s']:.3f}" for r in ok) + " s"
            + "; median yardstick " + " ".join(
                f"{1e3 * r['yardstick_s']:.2f}" for r in ok
            ) + " ms"
        )
    if good:
        f = good[0]["facts"]
        print(
            f"requests: generated {f['generated']}, completed {f['completed']} "
            f"(latency samples), timeouts {f['timeouts']}, dropped "
            f"{f['dropped']}, in flight at cutoff {f['in_flight']}"
        )
        if not math.isnan(f.get("true_peak_over_budget", math.nan)):
            print(
                f"power cap: true peak {f['true_peak_over_budget']:.3f} x budget; "
                f"coordinator verdict cap_ok={f['coordinator_cap_ok']} "
                f"(its peak {f['coordinator_peak_over_budget']:.3f} x budget, "
                "reported, not gated)"
            )
        print("checks: " + ", ".join(
            f"{k}={'ok' if v else 'FAIL'}" for k, v in good[0]["checks"].items()
        ) + f", digest {good[0]['digest']}")
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", choices=("setup", "plain", "traced"))
    ap.add_argument("--t0", type=float, default=0.0)
    ap.add_argument("--tmpdir", default="")
    args = ap.parse_args(argv)
    if args.child:
        return child(args)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.NAMES:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.NAMES)}",
            file=sys.stderr,
        )
        return 2
    probes, reps = measure(args)
    correct, attempted, failed, notes = verdict(probes, reps)
    usable = all(any("error" not in r for r in rs) for rs in reps.values())
    if not usable:
        for line in notes:
            print(line, file=sys.stderr)
        print("perfbench: no rep of a required kind finished", file=sys.stderr)
        return 1
    metrics = per_layer(reps) if args.trace else end_to_end(probes, reps)
    report(args, probes, reps, metrics, notes)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
