#!/usr/bin/env python3
"""CI perf-smoke gate for the codec hot paths and the end-to-end
simulation loop.

Three independent gates. The first two compare a fresh `--quick` bench
run against a checked-in baseline at the repo root:

  codec   `micro_codec --quick`   vs BENCH_codec.json  ("after")
  system  `micro_system --quick`  vs BENCH_system.json ("after")

The third is self-relative: `fig13_bandwidth --quick` records the best
COP+BW speedup over protection-only COP across the bandwidth-bound
profiles, and the gate requires it to stay above 1.0 — the shortened-
burst mode must keep beating protection-only somewhere, or the mode
has silently stopped shortening. The speedup is a ratio of simulated
IPCs (deterministic), so unlike the throughput gates it is immune to
runner noise.

A gate fails when throughput regresses by more than the allowed
fraction; a gate whose fresh-results file is missing is skipped with a
notice (so partial local runs still work).

The threshold is deliberately loose (30%): --quick runs on shared CI
runners are noisy, and the gates exist to catch order-of-magnitude
regressions (a kernel silently falling back to the bit-serial path, a
content-cache or flat-map path reverting to regeneration), not
single-digit drift. For a change that legitimately trades throughput
away, apply the `perf-override` label to the PR — the CI job skips
itself when the label is present — and refresh the baseline file per
EXPERIMENTS.md.

The fast-timing gates (SystemConfig::fastTiming, DESIGN.md §8) read
`micro_system --quick --threads 4`: the IPC divergence of the relaxed
mode vs. the serial oracle on the default profile is a ratio of two
deterministic simulated IPCs and must stay under its contract ceiling
(2% for cop4) on any host, while the fast-timing wall speedup — the
whole point of trading byte-identity away — is gated only when the
recording host had >= 4 CPUs (on smaller hosts a wall speedup is
physically impossible and the check is skipped loudly).

A fourth gate is fully deterministic: `fault_campaign --quick` records
the fraction of injected 2-flip raw events the on-die SEC filter
miscorrects and the number of ECC-region slots the adaptive-capacity
mode reclaims. Both are functions of seeded simulation state, so they
are gated as exact bands rather than noise-tolerant floors: the
miscorrection fraction must sit in [0.02, 0.40] (outside it the filter
is either inert or pathologically expanding patterns) and the
reclaimed-slot count must be positive on the campaign's compressible
profiles.

Usage: scripts/check_perf.py
         [--codec-baseline BENCH_codec.json]
         [--codec-results bench/results/micro_codec.json]
         [--system-baseline BENCH_system.json]
         [--system-results bench/results/micro_system.json]
         [--system-threads-results
              bench/results/micro_system_threads.json]
         [--bandwidth-results bench/results/fig13_bandwidth.json]
         [--fault-results bench/results/fault_campaign.json]
         [--max-regression 0.30]
"""

import argparse
import json
import os
import sys

CODEC_KEYS = ["encode_cop4", "encode_cop8"]
# End-to-end epochs/sec per controller scheme. The COP-family schemes
# are the ones the content-cache / flat-hash / dedup work targets (and
# the ones a regression would silently slow down); the unprotected
# baseline rides along as a sanity floor for the System loop itself.
SYSTEM_KEYS = ["unprot", "cop4", "cop8", "coper", "coper_naive"]


def gate(name, pairs, max_regression):
    """pairs: list of (key, baseline, fresh). Returns True on failure."""
    floor_frac = 1.0 - max_regression
    failed = False
    for key, base, now in pairs:
        floor = base * floor_frac
        verdict = "ok" if now >= floor else "FAIL"
        print(f"{name}/{key}: {now:,.0f}/s vs baseline {base:,.0f} "
              f"(floor {floor:,.0f}) ... {verdict}")
        failed |= now < floor
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--codec-baseline", default="BENCH_codec.json")
    parser.add_argument("--codec-results",
                        default="bench/results/micro_codec.json")
    parser.add_argument("--system-baseline", default="BENCH_system.json")
    parser.add_argument("--system-results",
                        default="bench/results/micro_system.json")
    parser.add_argument("--system-threads-results",
                        default="bench/results/micro_system_threads.json")
    parser.add_argument("--bandwidth-results",
                        default="bench/results/fig13_bandwidth.json")
    parser.add_argument("--fault-results",
                        default="bench/results/fault_campaign.json")
    # Back-compat aliases for the original codec-only interface.
    parser.add_argument("--baseline", dest="codec_baseline",
                        help=argparse.SUPPRESS)
    parser.add_argument("--results", dest="codec_results",
                        help=argparse.SUPPRESS)
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="maximum allowed fractional drop (0.30 = "
                             "fail below 70%% of baseline)")
    parser.add_argument("--fast-timing-speedup-min", type=float,
                        default=2.5,
                        help="floor for the fast-timing wall speedup "
                             "(min over cop4/coper; only gated when "
                             "the recording host had >= 4 CPUs)")
    parser.add_argument("--ft-divergence-max", type=float, default=0.02,
                        help="ceiling for the fast-timing IPC "
                             "divergence vs. the serial oracle "
                             "on the default profile (cop4)")
    args = parser.parse_args()

    failed = False
    ran_any = False

    if os.path.exists(args.codec_results):
        ran_any = True
        with open(args.codec_baseline) as f:
            base = json.load(f)["after"]
        with open(args.codec_results) as f:
            fresh = json.load(f)["throughput_blocks_per_sec"]
        failed |= gate("codec",
                       [(k, float(base[k]), float(fresh[k]))
                        for k in CODEC_KEYS],
                       args.max_regression)
    else:
        print(f"codec: {args.codec_results} not found, skipping gate")

    if os.path.exists(args.system_results):
        ran_any = True
        # Gate against the recorded --quick floor, not the full-mode
        # "after" showcase: quick passes are constructor-dominated and
        # systematically slower than full passes.
        with open(args.system_baseline) as f:
            base = json.load(f)["after_quick"]["epochs_per_sec"]
        with open(args.system_results) as f:
            fresh = json.load(f)["epochs_per_sec"]
        failed |= gate("system",
                       [(k, float(base[k]), float(fresh[k]))
                        for k in SYSTEM_KEYS],
                       args.max_regression)
    else:
        print(f"system: {args.system_results} not found, skipping gate")

    if os.path.exists(args.system_threads_results):
        ran_any = True
        with open(args.system_threads_results) as f:
            sweep = json.load(f)
        host_cpus = int(sweep["host_cpus"])
        # The IPC divergence vs. the serial oracle is a ratio of two
        # deterministic simulated IPCs, so it gates on any host; the
        # wall speedup needs real cores under it.
        div = float(sweep["ft_ipc_divergence"]["cop4"])
        div_ok = div <= args.ft_divergence_max
        print(f"fast-timing/ft_ipc_divergence/cop4: {div:.4f} "
              f"(ceiling {args.ft_divergence_max:.2f}) "
              f"... {'ok' if div_ok else 'FAIL'}")
        if not div_ok:
            failed = True
            print("fast-timing: the relaxed mode's IPC diverged "
                  "from the serial oracle beyond its contract on "
                  "the default profile — the ambient-contention "
                  "model is mis-calibrated or broken.",
                  file=sys.stderr)
        if host_cpus >= 4:
            ftw = float(sweep["fast_timing_speedup_min"])
            ftw_ok = ftw >= args.fast_timing_speedup_min
            print(f"fast-timing/fast_timing_speedup_min: "
                  f"{ftw:.2f}x "
                  f"(floor {args.fast_timing_speedup_min:.2f}x, "
                  f"host_cpus={host_cpus}) "
                  f"... {'ok' if ftw_ok else 'FAIL'}")
            if not ftw_ok:
                failed = True
                print("fast-timing: the relaxed mode no longer "
                      "beats the serial run on a "
                      "multi-core host — the shard barriers or "
                      "the partitioned LLC are costing more than "
                      "the parallelism pays.", file=sys.stderr)
        else:
            print(f"fast-timing/fast_timing_speedup_min: skipped "
                  f"(host_cpus={host_cpus} < 4 — no parallelism "
                  "to measure; the divergence gate above still "
                  "applies)")
    else:
        print(f"fast-timing: {args.system_threads_results} not found, "
              "skipping gate")

    if os.path.exists(args.bandwidth_results):
        ran_any = True
        with open(args.bandwidth_results) as f:
            derived = json.load(f)["derived"]
        best = float(derived["cop_bw_best_speedup"])
        verdict = "ok" if best > 1.0 else "FAIL"
        print(f"bandwidth/cop_bw_best_speedup: {best:.3f}x "
              f"(must exceed 1.0) ... {verdict}")
        if best <= 1.0:
            failed = True
            print("bandwidth: COP+BW no longer beats protection-only "
                  "COP on any bandwidth-bound profile — the shortened-"
                  "burst mode has stopped paying for itself.",
                  file=sys.stderr)
    else:
        print(f"bandwidth: {args.bandwidth_results} not found, "
              "skipping gate")

    if os.path.exists(args.fault_results):
        ran_any = True
        with open(args.fault_results) as f:
            derived = json.load(f)["derived"]
        # Deterministic band, not a noise floor: both scalars are pure
        # functions of the seeded simulation.
        mc_frac = float(derived["ondie_f2_miscorrect_frac"])
        mc_ok = 0.02 <= mc_frac <= 0.40
        print(f"fault/ondie_f2_miscorrect_frac: {mc_frac:.3f} "
              f"(band [0.02, 0.40]) ... {'ok' if mc_ok else 'FAIL'}")
        if not mc_ok:
            failed = True
            print("fault: the on-die SEC filter's 2-flip miscorrection "
                  "fraction left its band — the filter is inert or "
                  "mis-wired.", file=sys.stderr)
        reclaimed = float(derived["adaptive_slots_reclaimed"])
        ad_ok = reclaimed > 0
        print(f"fault/adaptive_slots_reclaimed: {reclaimed:.0f} "
              f"(must be positive) ... {'ok' if ad_ok else 'FAIL'}")
        if not ad_ok:
            failed = True
            print("fault: adaptive capacity reclaimed nothing on the "
                  "campaign's compressible profiles.", file=sys.stderr)
        ad_silent = float(derived["adaptive_f1_silent"])
        sdc_ok = ad_silent == 0
        print(f"fault/adaptive_f1_silent: {ad_silent:.0f} "
              f"(must be zero) ... {'ok' if sdc_ok else 'FAIL'}")
        if not sdc_ok:
            failed = True
            print("fault: single-flip faults under adaptive capacity "
                  "produced silent corruption — a demotion corrupted "
                  "committed data.", file=sys.stderr)
    else:
        print(f"fault: {args.fault_results} not found, skipping gate")

    if not ran_any:
        print("perf-smoke: no fresh bench results found — run "
              "micro_codec --quick / micro_system --quick first.",
              file=sys.stderr)
        return 1
    if failed:
        print("\nperf-smoke: throughput regressed more than "
              f"{args.max_regression:.0%} vs the checked-in baseline.",
              file=sys.stderr)
        print("If intentional, add the 'perf-override' label to the PR "
              "and refresh BENCH_codec.json / BENCH_system.json (see "
              "EXPERIMENTS.md).", file=sys.stderr)
        return 1
    print("perf-smoke: within budget.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
