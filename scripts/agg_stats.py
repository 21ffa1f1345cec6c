#!/usr/bin/env python3
"""Validate and tabulate COP stats traces.

A stats trace is the JSONL file written by `SystemConfig::traceStatsPath`
(or, for benches, by setting `COP_TRACE_STATS=<dir>`): one snapshot per
line, each carrying per-counter deltas since the previous snapshot and
cumulative latency-histogram summaries.

Usage:
  agg_stats.py TRACE.jsonl              per-epoch counter table
  agg_stats.py TRACE.jsonl --check      schema-validate; exit 1 on error
  agg_stats.py TRACE.jsonl --counters dram.reads,mem.fills
  agg_stats.py TRACE.jsonl --hist dram.read_latency
  agg_stats.py TRACE.jsonl --totals     summed deltas over the whole run

Multiple traces can be given; each is processed independently.
"""

import argparse
import json
import signal
import sys

HIST_KEYS = ("count", "delta_count", "p50", "p95", "p99", "max")


def fail(path, lineno, msg):
    sys.exit(f"{path}:{lineno}: {msg}")


def nonneg_int(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


BUS_GAUGES = ("dram.bus_busy_cycles", "dram.bus_turnarounds")


def check_bus_gauges(path, lineno, counters):
    """Validate the bus-utilisation gauges of one snapshot's deltas.

    Any trace whose DRAM registered its stats must carry the bus
    gauges, and the per-channel busy-cycle gauges must sum to the total.
    """
    if "dram.reads" not in counters:
        return
    for name in BUS_GAUGES:
        if name not in counters:
            fail(path, lineno, f"missing bus gauge {name!r}")
    per_channel = [v for n, v in counters.items()
                   if n.startswith("dram.bus_busy_cycles_ch")]
    if per_channel and sum(per_channel) != counters["dram.bus_busy_cycles"]:
        fail(path, lineno,
             "per-channel bus busy cycles do not sum to the total")


ONDIE_GAUGES = ("ondie.injected", "ondie.corrected",
                "ondie.miscorrected", "ondie.forwarded")
ADAPTIVE_GAUGES = ("adaptive.slots_reclaimed", "adaptive.demotions",
                   "adaptive.victim_evictions",
                   "adaptive.released_blocks_hw")


def check_ondie_gauges(path, lineno, counters):
    """Validate the on-die SEC filter gauges of one snapshot's deltas.

    The filter partitions every injected raw pattern into exactly one
    outcome, so per snapshot
      delta(corrected + miscorrected + forwarded) == delta(injected).
    """
    if "ondie.injected" not in counters:
        return
    for name in ONDIE_GAUGES:
        if name not in counters:
            fail(path, lineno, f"missing on-die gauge {name!r}")
    filtered = (counters["ondie.corrected"]
                + counters["ondie.miscorrected"]
                + counters["ondie.forwarded"])
    if filtered != counters["ondie.injected"]:
        fail(path, lineno,
             f"on-die outcomes not conserved: {filtered} classified != "
             f"{counters['ondie.injected']} injected")


TRACE_GAUGES = ("trace.epochs_read", "trace.accesses_read",
                "trace.epochs_replayed", "trace.accesses_replayed")


def check_trace_gauges(path, lineno, counters):
    """Validate the trace-replay gauges of one snapshot's deltas.

    Replay runs register conservation counters: every epoch (and every
    access) a trace source hands out is consumed by the simulation
    before the snapshot is cut, so per snapshot
      delta(epochs_read) == delta(epochs_replayed)  and
      delta(accesses_read) == delta(accesses_replayed).
    Synthetic runs carry none of these gauges.
    """
    if "trace.epochs_read" not in counters:
        return
    for name in TRACE_GAUGES:
        if name not in counters:
            fail(path, lineno, f"missing trace gauge {name!r}")
    if counters["trace.epochs_read"] != counters["trace.epochs_replayed"]:
        fail(path, lineno,
             f"trace epochs not conserved: "
             f"{counters['trace.epochs_read']} read != "
             f"{counters['trace.epochs_replayed']} replayed")
    if (counters["trace.accesses_read"]
            != counters["trace.accesses_replayed"]):
        fail(path, lineno,
             f"trace accesses not conserved: "
             f"{counters['trace.accesses_read']} read != "
             f"{counters['trace.accesses_replayed']} replayed")


def check_adaptive_gauges(path, lineno, counters, running):
    """Validate the adaptive-capacity gauges (running totals).

    Every demotion reclaims a slot that was previously released, so
    over any prefix of the run demotions <= slots_reclaimed, and each
    demotion evicts exactly one victim.
    """
    if "adaptive.slots_reclaimed" not in counters:
        return
    for name in ADAPTIVE_GAUGES:
        if name not in counters:
            fail(path, lineno, f"missing adaptive gauge {name!r}")
        running[name] = running.get(name, 0) + counters[name]
    if running["adaptive.demotions"] > running["adaptive.slots_reclaimed"]:
        fail(path, lineno,
             f"adaptive demotions ({running['adaptive.demotions']}) "
             f"exceed slots ever reclaimed "
             f"({running['adaptive.slots_reclaimed']})")
    if counters["adaptive.victim_evictions"] != counters["adaptive.demotions"]:
        fail(path, lineno,
             "adaptive victim evictions != demotions in snapshot")


DIVERGENCE_GAUGES = ("shard.divergence_barriers",
                     "shard.divergence_ambient_stall_cycles",
                     "shard.divergence_ambient_row_closes",
                     "shard.divergence_clock_skew_max",
                     "shard.divergence_version_merges")


def check_divergence_gauges(path, lineno, counters):
    """Validate the fast-timing divergence gauges (when present).

    Only fast-timing runs (SystemConfig::fastTiming) register the
    shard.divergence_* family — exact runs must not carry it. When any
    member appears, all of them must: the divergence contract promises
    the approximation is reported in full, never selectively. All are
    running totals (clock_skew_max is a running max), so the drained
    per-snapshot deltas the schema checks elsewhere are non-negative
    by construction.
    """
    present = [name for name in DIVERGENCE_GAUGES if name in counters]
    if not present or len(present) == len(DIVERGENCE_GAUGES):
        return
    missing = sorted(set(DIVERGENCE_GAUGES) - set(present))
    fail(path, lineno,
         f"fast-timing trace carries {present[0]!r} but is missing "
         f"divergence gauge(s) {missing}")


def load(path):
    """Parse and schema-check one trace; returns the snapshot list."""
    snapshots = []
    prev_epoch = -1
    prev_cycle = -1
    counter_keys = None
    hist_keys = None
    prev_hist_counts = {}
    adaptive_running = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                fail(path, lineno, "blank line inside trace")
            try:
                snap = json.loads(line)
            except json.JSONDecodeError as err:
                fail(path, lineno, f"invalid JSON: {err}")
            if not isinstance(snap, dict):
                fail(path, lineno, "snapshot is not an object")
            for key in ("epoch", "cycle", "counters", "histograms"):
                if key not in snap:
                    fail(path, lineno, f"missing key {key!r}")
            if not nonneg_int(snap["epoch"]):
                fail(path, lineno, "epoch must be a non-negative integer")
            if not nonneg_int(snap["cycle"]):
                fail(path, lineno, "cycle must be a non-negative integer")
            if snap["epoch"] < prev_epoch:
                fail(path, lineno, "epoch went backwards")
            if snap["cycle"] < prev_cycle:
                fail(path, lineno, "cycle went backwards")
            prev_epoch, prev_cycle = snap["epoch"], snap["cycle"]

            counters = snap["counters"]
            if not isinstance(counters, dict):
                fail(path, lineno, "counters is not an object")
            for name, value in counters.items():
                if not nonneg_int(value):
                    fail(path, lineno, f"counter {name!r} not a non-negative int")
            if counter_keys is None:
                counter_keys = set(counters)
            elif set(counters) != counter_keys:
                fail(path, lineno, "counter key set changed mid-trace")
            check_bus_gauges(path, lineno, counters)
            check_ondie_gauges(path, lineno, counters)
            check_trace_gauges(path, lineno, counters)
            check_adaptive_gauges(path, lineno, counters,
                                  adaptive_running)
            check_divergence_gauges(path, lineno, counters)

            hists = snap["histograms"]
            if not isinstance(hists, dict):
                fail(path, lineno, "histograms is not an object")
            for name, summary in hists.items():
                if not isinstance(summary, dict):
                    fail(path, lineno, f"histogram {name!r} not an object")
                if set(summary) != set(HIST_KEYS):
                    fail(path, lineno,
                         f"histogram {name!r} keys {sorted(summary)} != "
                         f"{sorted(HIST_KEYS)}")
                for key, value in summary.items():
                    if not nonneg_int(value):
                        fail(path, lineno,
                             f"histogram {name!r}.{key} not a non-negative int")
                if summary["delta_count"] > summary["count"]:
                    fail(path, lineno,
                         f"histogram {name!r} delta_count exceeds count")
                if summary["count"] < prev_hist_counts.get(name, 0):
                    fail(path, lineno,
                         f"histogram {name!r} count went backwards")
                prev_hist_counts[name] = summary["count"]
                if summary["max"] and (summary["p50"] > summary["max"]
                                       or summary["p99"] > summary["max"]):
                    fail(path, lineno,
                         f"histogram {name!r} percentile exceeds max")
            if hist_keys is None:
                hist_keys = set(hists)
            elif set(hists) != hist_keys:
                fail(path, lineno, "histogram key set changed mid-trace")
            snapshots.append(snap)
    if not snapshots:
        fail(path, 0, "empty trace")
    return snapshots


def pick_counters(snapshots, requested):
    available = list(snapshots[0]["counters"])
    if not requested:
        return available
    names = [n for n in requested.split(",") if n]
    for name in names:
        if name not in snapshots[0]["counters"]:
            sys.exit(f"unknown counter {name!r}; available: "
                     f"{', '.join(available)}")
    return names


def print_table(path, snapshots, names):
    widths = [max(len(n), 12) for n in names]
    header = f"{'epoch':>10} {'cycle':>14} " + " ".join(
        f"{n:>{w}}" for n, w in zip(names, widths))
    print(f"# {path}")
    print(header)
    print("-" * len(header))
    for snap in snapshots:
        row = f"{snap['epoch']:>10} {snap['cycle']:>14} " + " ".join(
            f"{snap['counters'][n]:>{w}}" for n, w in zip(names, widths))
        print(row)


def print_hist(path, snapshots, name):
    if name not in snapshots[0]["histograms"]:
        available = ", ".join(snapshots[0]["histograms"])
        sys.exit(f"unknown histogram {name!r}; available: {available}")
    print(f"# {path} :: {name}")
    header = (f"{'epoch':>10} {'count':>12} {'delta':>10} {'p50':>8} "
              f"{'p95':>8} {'p99':>8} {'max':>8}")
    print(header)
    print("-" * len(header))
    for snap in snapshots:
        s = snap["histograms"][name]
        print(f"{snap['epoch']:>10} {s['count']:>12} "
              f"{s['delta_count']:>10} {s['p50']:>8} {s['p95']:>8} "
              f"{s['p99']:>8} {s['max']:>8}")


def print_totals(path, snapshots):
    print(f"# {path} (summed deltas, {len(snapshots)} snapshots)")
    totals = {}
    for snap in snapshots:
        for name, value in snap["counters"].items():
            totals[name] = totals.get(name, 0) + value
    width = max(len(n) for n in totals)
    for name in totals:
        print(f"  {name:<{width}}  {totals[name]}")


def main():
    # Die quietly when piped into head & co.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("traces", nargs="+", help="JSONL stats trace(s)")
    parser.add_argument("--check", action="store_true",
                        help="schema-validate only; exit 1 on violation")
    parser.add_argument("--counters",
                        help="comma-separated counter names to tabulate")
    parser.add_argument("--hist",
                        help="tabulate one histogram's summary per epoch")
    parser.add_argument("--totals", action="store_true",
                        help="print summed counter deltas over the run")
    args = parser.parse_args()

    for path in args.traces:
        snapshots = load(path)
        if args.check:
            print(f"OK: {path}: {len(snapshots)} snapshots, "
                  f"{len(snapshots[0]['counters'])} counters, "
                  f"{len(snapshots[0]['histograms'])} histograms")
        elif args.hist:
            print_hist(path, snapshots, args.hist)
        elif args.totals:
            print_totals(path, snapshots)
        else:
            print_table(path, snapshots,
                        pick_counters(snapshots, args.counters))


if __name__ == "__main__":
    main()
