/**
 * @file
 * End-to-end system throughput harness: simulated epochs/sec and LLC
 * misses/sec for a full Table-1 System per memory-controller kind, on
 * one memory-intensive profile. Where micro_codec measures the codec
 * kernels in isolation, this measures everything the grid runner pays
 * for per cell — trace generation, the LLC, functional memory
 * (BlockContentPool), the controller decode/encode paths and the DRAM
 * timing model — so wins and regressions in any layer show up here.
 *
 * Construction is excluded from the timed region: each pass builds its
 * System untimed and times run() alone, so the numbers isolate the
 * steady-state simulation loop from allocator noise (a grid cell pays
 * construction once but runs tens of thousands of epochs).
 *
 * Results print to stdout and land in bench/results/micro_system.json
 * (directory overridable via COP_BENCH_RESULTS). BENCH_system.json at
 * the repo root records the before/after numbers of the end-to-end
 * throughput work measured with this exact methodology.
 *
 * `--threads N` (N > 1) switches to the fast-timing mode
 * (SystemConfig::fastTiming with simThreads = N): serial and N-shard
 * fast passes alternate per scheme, and the results — fast-timing wall
 * speedup, plus the deterministic IPC divergence from the serial
 * oracle — land in bench/results/micro_system_threads.json.
 *
 * `--quick` shortens the run for the CI perf-smoke job; the numbers
 * are noisier but the regression gate in scripts/check_perf.py leaves
 * margin for that.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "run_util.hpp"

namespace cop {
namespace {

double
nowMs()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               Clock::now().time_since_epoch())
        .count();
}

struct KindRow
{
    ControllerKind kind;
    const char *key; ///< JSON key (stable across schemes renames).
};

constexpr KindRow kKinds[] = {
    {ControllerKind::Unprotected, "unprot"},
    {ControllerKind::EccDimm, "ecc_dimm"},
    {ControllerKind::EccRegion, "ecc_region"},
    {ControllerKind::Cop4, "cop4"},
    {ControllerKind::Cop8, "cop8"},
    {ControllerKind::CopEr, "coper"},
    {ControllerKind::CopErNaive, "coper_naive"},
};

/** Accumulated measurements of one (scheme, mode) series. */
struct Series
{
    double timedMs = 0;
    u64 passes = 0;
    u64 misses = 0;
    double ipc = 0; ///< Last pass (deterministic, so any pass).
};

/** One untimed-construction / timed-run pass. */
void
onePass(const WorkloadProfile &profile, const SystemConfig &cfg,
        Series &series)
{
    System sys(profile, cfg);
    const double t0 = nowMs();
    const SystemResults r = sys.run();
    series.timedMs += nowMs() - t0;
    ++series.passes;
    series.misses += r.llcMisses;
    series.ipc = r.ipc;
}

double
epochsPerSec(const Series &series, const SystemConfig &cfg)
{
    if (series.timedMs <= 0)
        return 0.0;
    const double epochs = static_cast<double>(
        series.passes * cfg.epochsPerCore * cfg.cores);
    return epochs / (series.timedMs / 1000.0);
}

int
run(bool quick, const std::string &profile_name, unsigned threads)
{
    // Fixed epoch count per System run: every pass constructs a fresh
    // System (untimed), runs it to completion and times run() alone.
    // Deliberately independent of COP_BENCH_EPOCHS so the measurement
    // is not silently reconfigurable.
    const u64 epochs_per_core = quick ? 250 : 1500;
    const double target_ms = quick ? 200 : 1500;
    const WorkloadProfile &profile =
        WorkloadRegistry::byName(profile_name);
    const bool sweep = threads > 1;

    bench::JsonObjectBuilder eps_serial;
    bench::JsonObjectBuilder eps_fast;
    bench::JsonObjectBuilder fast_wall_speedup;
    bench::JsonObjectBuilder ft_divergence;
    bench::JsonObjectBuilder misses_per_sec;
    double fast_cop4 = 0;
    double fast_coper = 0;
    double ft_div_max = 0;

    if (sweep)
        std::printf("%-12s %12s %12s %7s %8s\n", "scheme", "epochs/s(1)",
                    "fast e/s(N)", "fast x", "ft div%");
    else
        std::printf("%-12s %14s %14s\n", "scheme", "epochs/s",
                    "misses/s");

    for (const KindRow &row : kKinds) {
        SystemConfig cfg = bench::paperConfig(row.kind);
        cfg.epochsPerCore = epochs_per_core;
        SystemConfig fast_cfg = cfg;
        fast_cfg.simThreads = threads;
        fast_cfg.fastTiming = true;

        Series serial;
        Series fast;
        {
            // Untimed warm-up pass (allocator, page cache).
            System sys(profile, cfg);
            (void)sys.run();
        }
        // Alternate serial and fast passes so OS noise drifts into
        // both series equally (the fast series is skipped entirely in
        // plain mode).
        do {
            onePass(profile, cfg, serial);
            if (sweep)
                onePass(profile, fast_cfg, fast);
        } while (serial.timedMs < target_ms);

        const double eps = epochsPerSec(serial, cfg);
        if (sweep) {
            const double eps_f = epochsPerSec(fast, fast_cfg);
            const double fast_ratio = eps > 0 ? eps_f / eps : 0.0;
            // The divergence the relaxed mode trades for throughput:
            // fast-timing IPC vs. the simThreads=1 oracle's, relative.
            // Deterministic (both IPCs are), so gateable on any host.
            const double ft_div =
                serial.ipc > 0
                    ? std::abs(fast.ipc - serial.ipc) / serial.ipc
                    : 0.0;
            std::printf("%-12s %12.0f %12.0f %6.2fx %7.2f%%\n", row.key,
                        eps, eps_f, fast_ratio, ft_div * 100.0);
            eps_serial.add(row.key, eps);
            eps_fast.add(row.key, eps_f);
            fast_wall_speedup.add(row.key, fast_ratio);
            ft_divergence.add(row.key, ft_div);
            ft_div_max = std::max(ft_div_max, ft_div);
            if (std::strcmp(row.key, "cop4") == 0)
                fast_cop4 = fast_ratio;
            else if (std::strcmp(row.key, "coper") == 0)
                fast_coper = fast_ratio;
        } else {
            const double mps = static_cast<double>(serial.misses) /
                               (serial.timedMs / 1000.0);
            std::printf("%-12s %14.0f %14.0f\n", row.key, eps, mps);
            eps_serial.add(row.key, eps);
            misses_per_sec.add(row.key, mps);
        }
    }

    const unsigned host_cpus = std::thread::hardware_concurrency();
    if (sweep) {
        if (host_cpus < threads) {
            std::printf("note: host has %u CPU(s) < %u threads — wall "
                        "speedup is not expected here; the divergence "
                        "column is the gateable metric\n",
                        host_cpus, threads);
        }
        bench::JsonObjectBuilder top;
        top.add("bench", std::string("micro_system_threads"));
        top.add("quick", static_cast<u64>(quick ? 1 : 0));
        top.add("profile", profile.name);
        top.add("epochs_per_core", epochs_per_core);
        top.add("threads", static_cast<u64>(threads));
        top.add("host_cpus", static_cast<u64>(host_cpus));
        top.addRaw("epochs_per_sec", eps_serial.str());
        top.addRaw("epochs_per_sec_fast", eps_fast.str());
        top.addRaw("fast_wall_speedup", fast_wall_speedup.str());
        top.addRaw("ft_ipc_divergence", ft_divergence.str());
        // Wall gate (host_cpus >= 4 only) and divergence gate (any
        // host — deterministic) for scripts/check_perf.py.
        top.add("fast_timing_speedup_min",
                std::min(fast_cop4, fast_coper));
        top.add("ft_ipc_divergence_max", ft_div_max);
        bench::writeResultsFile("micro_system_threads.json", top.str());
        return 0;
    }

    bench::JsonObjectBuilder top;
    top.add("bench", std::string("micro_system"));
    top.add("quick", static_cast<u64>(quick ? 1 : 0));
    top.add("profile", profile.name);
    top.add("epochs_per_core", epochs_per_core);
    top.addRaw("epochs_per_sec", eps_serial.str());
    top.addRaw("misses_per_sec", misses_per_sec.str());
    bench::writeResultsFile("micro_system.json", top.str());
    return 0;
}

} // namespace
} // namespace cop

int
main(int argc, char **argv)
{
    bool quick = false;
    std::string profile = "gcc";
    unsigned threads = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--profile") == 0 &&
                   i + 1 < argc) {
            profile = argv[++i];
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            threads = static_cast<unsigned>(std::strtoul(argv[++i],
                                                         nullptr, 10));
        } else {
            std::fprintf(
                stderr,
                "usage: %s [--quick] [--profile NAME] [--threads N]\n",
                argv[0]);
            return 2;
        }
    }
    return cop::run(quick, profile, threads);
}
