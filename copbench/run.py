#!/usr/bin/env python3
"""Repository benchmark for the COP simulator.

Run from the repository root:

    python3 copbench/run.py --workload NAME --seed N --seconds S --trace 0|1

On first use it configures and builds copbench/ (the simulator sources
plus the measuring program) into .bench_build/copbench with CMake. It
then runs the measuring program, checks its outputs, prints every
metric by name with its unit, and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of a traced run. Workloads and metrics are described in
copbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build") / "copbench"
BINARY = BUILD_DIR / "copbench"
RUN_TIMEOUT_S = 170

WORKLOADS = ("fig11_grid", "coper_lbm", "unprot_mcf", "cop4_gcc")

END_TO_END_UNITS = {
    "wall_s": "s",
    "epochs_per_s": "epochs/s",
    "cpu_s": "s",
    "cell_s.p50": "s",
    "cell_s.p87": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ft_ipc_divergence": "ratio",
}


def layer_unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".calls") or name in (
            "mem.meta_dram_reads", "dram.requests", "sim.ft.barriers"):
        return "count"
    if name.endswith(".ns"):
        return "ns"
    if "cycles" in name or name == "sim.ft.clock_skew_max":
        return "cycles"
    return "ratio"


def log(message):
    print(f"[copbench] {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build; False when the sources do not build."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            log(f"cannot run {step[0]}: {err}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return BINARY.exists()


def percentile(values, q):
    """Linear interpolation between closest ranks, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(samples, infos, end):
    cells = [c for s in samples for c in s["cells_s"]]
    divergence = [i["ft_ipc_divergence"] for i in infos
                  if "ft_ipc_divergence" in i]
    return {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "epochs_per_s": statistics.median(
            s["epochs"] / s["wall_s"] for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "cell_s.p50": percentile(cells, 50),
        "cell_s.p87": percentile(cells, 87),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": end["peak_rss_mb"],
        "ft_ipc_divergence": divergence[0],
    }


def per_layer(layers):
    return {name: statistics.median(layer[name] for layer in layers)
            for name in layers[0]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 2

    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
        output, code = done.stdout, done.returncode
    except subprocess.TimeoutExpired as err:
        output, code = err.stdout or "", "timeout"
        if isinstance(output, bytes):
            output = output.decode(errors="replace")

    lines = {"host": [], "sample": [], "layer": [], "info": [],
             "check": [], "end": []}
    for line in output.splitlines():
        tag, _, payload = line.partition(" ")
        if tag in lines:
            lines[tag].append(json.loads(payload))

    for host in lines["host"]:
        print("host", json.dumps(host["host"], sort_keys=True))
    for info in lines["info"]:
        for key, value in info.items():
            print(f"  {key} = {value}")
    for check in lines["check"]:
        print(f"FAILED check {check['name']}: {check['detail']}")
    digests = {s["digest"] for s in lines["sample"]}
    if digests:
        print(f"  sim_digest = {' '.join(sorted(digests))}")

    ended = code == 0 and len(lines["end"]) == 1
    if ended:
        attempted = lines["end"][0]["attempted"]
        failed = lines["end"][0]["failed"]
    else:
        # A crash or timeout fails the run that was in flight.
        log(f"measuring program ended abnormally ({code})")
        attempted = len(lines["sample"]) + len(lines["layer"]) + 1
        failed = len(lines["check"]) + 1

    metrics = {}
    units = {}
    if ended and args.trace == 0 and lines["sample"]:
        metrics = end_to_end(lines["sample"], lines["info"],
                             lines["end"][0])
        units = END_TO_END_UNITS
    elif ended and args.trace == 1 and lines["layer"]:
        metrics = per_layer(lines["layer"])
        units = {name: layer_unit(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")

    correct = ended and failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
