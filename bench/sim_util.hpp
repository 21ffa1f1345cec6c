/**
 * @file
 * Shared simulation driver for the system-level benches (Figures
 * 10-12): standard Table 1 configuration with a bench-friendly run
 * length, overridable via the COP_BENCH_EPOCHS environment variable.
 */

#ifndef COP_BENCH_SIM_UTIL_HPP
#define COP_BENCH_SIM_UTIL_HPP

#include <cstdlib>

#include "bench_util.hpp"
#include "common/parse.hpp"
#include "sim/system.hpp"

namespace cop::bench {

/**
 * Epochs per core for the system benches. A malformed or zero
 * COP_BENCH_EPOCHS is fatal: a 0-epoch run would print a perfectly
 * formatted table of meaningless numbers.
 */
inline u64
benchEpochs(u64 fallback = 12000)
{
    if (const char *env = std::getenv("COP_BENCH_EPOCHS"))
        return parsePositiveU64(env, "COP_BENCH_EPOCHS");
    return fallback;
}

/** Table 1 system configuration for one controller kind. */
inline SystemConfig
paperConfig(ControllerKind kind)
{
    SystemConfig cfg;
    cfg.cores = 4;
    cfg.llc = CacheConfig{4ULL << 20, 16, 34};
    cfg.kind = kind;
    cfg.epochsPerCore = benchEpochs();
    cfg.verifyData = true;
    return cfg;
}

/** Print the Table 1 configuration block. */
inline void
printTable1()
{
    std::printf("Table 1: simulator configuration\n");
    std::printf("  OoO core    : 3.2 GHz, 4-wide issue, 128-entry window "
                "(interval model,\n");
    std::printf("                per-benchmark perfect-L3 IPC)\n");
    std::printf("  L3          : 4 MB, 16-way, 34-cycle latency, shared "
                "by 4 cores\n");
    std::printf("  Memory      : DDR3-1600, 64-bit bus, 8 GB, 2 channels, "
                "1 DIMM/channel,\n");
    std::printf("                2 ranks/DIMM, 8 chips/rank, open-row, "
                "FR-FCFS-style banking\n");
    std::printf("  COP decode  : +4 cycles per fill\n\n");
}

} // namespace cop::bench

#endif // COP_BENCH_SIM_UTIL_HPP
