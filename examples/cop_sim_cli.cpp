/**
 * @file
 * cop_sim_cli: the full-system simulator as a command-line tool —
 * pick a benchmark (built-in or a custom profile file), a protection
 * scheme and system knobs, get the complete sectioned run report.
 *
 * Usage:
 *   cop_sim_cli [options]
 *     --bench <name>         built-in benchmark (default mcf)
 *     --profile <file>       custom profile file (overrides --bench)
 *     --scheme <s>           unprot | eccdimm | eccreg | cop4 | cop8 |
 *                            coper | coper-naive   (default cop4)
 *     --epochs <n>           epochs per core (default 8000)
 *     --cores <n>            cores (default 4)
 *     --decode-latency <n>   COP decode cycles (default 4)
 *     --closed-page          closed-page DRAM row policy
 *     --proactive-alias      alias-check stores at LLC-write time
 *     --bandwidth            ship compressed blocks in shortened bursts
 *     --beat-floor <n>       smallest shortened burst, in beats (1..8)
 *     --trace-stats <file>   write a JSONL stats trace (see
 *                            scripts/agg_stats.py)
 *     --trace-interval <n>   epochs between trace snapshots
 *     --fast-timing          relaxed-consistency fast mode: true
 *                            shard parallelism under --sim-threads,
 *                            deterministic but NOT byte-identical to
 *                            the exact model (divergence is reported
 *                            in the ft_* results fields)
 *     --sim-threads <n>      fast-timing shard budget (0 = all cores);
 *                            needs --fast-timing (exact runs are serial)
 *     --ft-quantum <n>       epochs per core between fast-timing
 *                            reconciliation barriers (default 64)
 *     --trace-in <file>      replay a captured trace instead of the
 *                            synthetic generator; repeat once per core
 *                            (cores = number of --trace-in files)
 *     --trace-format <f>     auto | bin | text | gz  (default auto)
 *     --fit-profile          estimate the workload profile from the
 *                            first trace (--bench/--profile then only
 *                            supply the block-content model)
 *     --fit-epochs <n>       trace prefix the fit scans (default 10000)
 *     --list                 list built-in benchmarks and exit
 *
 * Without --epochs, a replay runs every epoch the shortest trace holds.
 */

#include <algorithm>
#include <cstring>
#include <iostream>
#include <vector>

#include "common/parse.hpp"
#include "sim/report.hpp"
#include "trace/fit.hpp"
#include "trace/replay.hpp"
#include "workloads/profile_io.hpp"

using namespace cop;

namespace {

ControllerKind
parseScheme(const std::string &s)
{
    if (s == "unprot")
        return ControllerKind::Unprotected;
    if (s == "eccdimm")
        return ControllerKind::EccDimm;
    if (s == "eccreg")
        return ControllerKind::EccRegion;
    if (s == "cop4")
        return ControllerKind::Cop4;
    if (s == "cop8")
        return ControllerKind::Cop8;
    if (s == "coper")
        return ControllerKind::CopEr;
    if (s == "coper-naive")
        return ControllerKind::CopErNaive;
    COP_FATAL("unknown scheme: " + s);
}

int
listBenchmarks()
{
    for (const auto &p : WorkloadRegistry::all()) {
        std::printf("%-14s %-13s%s\n", p.name.c_str(),
                    suiteName(p.suite),
                    p.memoryIntensive ? "  [Table 2]" : "");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string bench = "mcf";
    std::string profile_path;
    std::vector<std::string> trace_paths;
    TraceFormat trace_format = TraceFormat::Auto;
    bool fit_profile = false;
    u64 fit_epochs = 10000;
    bool epochs_set = false;
    SystemConfig cfg;
    cfg.kind = ControllerKind::Cop4;
    cfg.epochsPerCore = 8000;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                COP_FATAL(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--bench") {
            bench = next();
        } else if (arg == "--profile") {
            profile_path = next();
        } else if (arg == "--scheme") {
            cfg.kind = parseScheme(next());
        } else if (arg == "--epochs") {
            cfg.epochsPerCore = parsePositiveU64(next(), "--epochs");
            epochs_set = true;
        } else if (arg == "--trace-in") {
            trace_paths.emplace_back(next());
        } else if (arg == "--trace-format") {
            trace_format = parseTraceFormat(next());
        } else if (arg == "--fit-profile") {
            fit_profile = true;
        } else if (arg == "--fit-epochs") {
            fit_epochs = parsePositiveU64(next(), "--fit-epochs");
        } else if (arg == "--cores") {
            cfg.cores = static_cast<unsigned>(
                parsePositiveU64(next(), "--cores"));
        } else if (arg == "--decode-latency") {
            // 0 is a legitimate decode latency (the ablation's lower
            // bound), so only malformed input is rejected.
            cfg.decodeLatency = parseU64(next(), "--decode-latency");
        } else if (arg == "--closed-page") {
            cfg.dram.rowPolicy = RowPolicy::Closed;
        } else if (arg == "--proactive-alias") {
            cfg.proactiveAliasCheck = true;
        } else if (arg == "--bandwidth") {
            cfg.bandwidthCompression = true;
        } else if (arg == "--beat-floor") {
            // Range-checked by the System constructor.
            cfg.bandwidthBeatFloor = static_cast<unsigned>(
                parsePositiveU64(next(), "--beat-floor"));
        } else if (arg == "--trace-stats") {
            cfg.traceStatsPath = next();
        } else if (arg == "--trace-interval") {
            cfg.traceStatsEpochInterval =
                parsePositiveU64(next(), "--trace-interval");
        } else if (arg == "--sim-threads") {
            // 0 is the resolve-to-hardware-concurrency request; the
            // System rejects any value but 1 without --fast-timing.
            cfg.simThreads = static_cast<unsigned>(
                parseU64(next(), "--sim-threads"));
        } else if (arg == "--fast-timing") {
            cfg.fastTiming = true;
        } else if (arg == "--ft-quantum") {
            cfg.fastTimingQuantumEpochs =
                parsePositiveU64(next(), "--ft-quantum");
        } else if (arg == "--list") {
            return listBenchmarks();
        } else {
            COP_FATAL("unknown option: " + arg +
                      " (see the header comment for usage)");
        }
    }

    // Custom profiles must outlive the System (it holds a reference).
    WorkloadProfile custom;
    const WorkloadProfile *profile;
    if (!profile_path.empty()) {
        custom = loadProfile(profile_path);
        profile = &custom;
    } else {
        profile = &WorkloadRegistry::byName(bench);
    }

    if (fit_profile && trace_paths.empty())
        COP_FATAL("--fit-profile needs a --trace-in trace");

    WorkloadProfile fitted; // must also outlive the System
    if (!trace_paths.empty()) {
        // One trace per core: the replay's core count is the file
        // count, not --cores (which only shapes synthetic runs).
        cfg.cores = static_cast<unsigned>(trace_paths.size());
        if (fit_profile) {
            const auto src =
                openTraceSource(trace_paths[0], trace_format);
            TraceFitOptions opts;
            opts.maxEpochs = fit_epochs;
            opts.contentTemplate = profile;
            fitted = fitProfileFromTrace(
                *src, "fitted(" + profile->name + ")", opts);
            profile = &fitted;
        }
        if (!epochs_set) {
            u64 available = ~0ULL;
            for (const std::string &path : trace_paths) {
                available = std::min(
                    available, replayEpochCount(path, trace_format));
            }
            if (available == 0)
                COP_FATAL("trace replay: a trace has no epochs");
            cfg.epochsPerCore = available;
        }
        cfg.epochSource =
            makeTraceReplayFactory(*profile, trace_paths, trace_format);
    }

    System system(*profile, cfg);
    const SystemResults results = system.run();
    writeReport(results, cfg, *profile, std::cout);
    return 0;
}
