#include "sim/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/parse.hpp"

namespace cop {

unsigned
RunnerOptions::effectiveJobs() const
{
    if (serial)
        return 1;
    if (jobs > 0)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

RunnerOptions
parseRunnerOptions(int argc, char **argv)
{
    RunnerOptions opts;
    if (const char *env = std::getenv("COP_BENCH_JOBS")) {
        opts.jobs = static_cast<unsigned>(
            parsePositiveU64(env, "COP_BENCH_JOBS"));
    }
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--serial") {
            opts.serial = true;
        } else if (arg == "--jobs") {
            if (i + 1 >= argc)
                COP_FATAL("--jobs needs a value");
            opts.jobs = static_cast<unsigned>(
                parsePositiveU64(argv[++i], "--jobs"));
        }
    }
    return opts;
}

bool
sameCell(const WorkloadProfile &a, const SystemConfig &a_cfg,
         const WorkloadProfile &b, const SystemConfig &b_cfg)
{
    const auto attached = [](const SystemConfig &cfg) {
        return !cfg.traceStatsPath.empty() ||
               static_cast<bool>(cfg.epochSource);
    };
    if (attached(a_cfg) || attached(b_cfg))
        return false;
    return a == b && static_cast<const SystemParams &>(a_cfg) == b_cfg;
}

void
runIndexed(size_t count, const std::function<void(size_t)> &job,
           const RunnerOptions &opts, std::vector<double> *wall_ms)
{
    using Clock = std::chrono::steady_clock;
    if (wall_ms != nullptr)
        wall_ms->assign(count, 0.0);

    // An exception escaping a worker thread would hit std::terminate
    // with no hint of which grid cell died. Capture failures per cell
    // instead and fail loudly, by name, after every worker has joined.
    std::mutex failuresMutex;
    std::vector<std::pair<size_t, std::string>> failures;

    auto timed = [&](size_t i) {
        const Clock::time_point start = Clock::now();
        try {
            job(i);
        } catch (const std::exception &e) {
            const std::lock_guard<std::mutex> lock(failuresMutex);
            failures.emplace_back(i, e.what());
        } catch (...) {
            const std::lock_guard<std::mutex> lock(failuresMutex);
            failures.emplace_back(i, "unknown exception");
        }
        if (wall_ms != nullptr) {
            // Each index is claimed by exactly one worker, so this
            // write is race-free without synchronisation.
            (*wall_ms)[i] =
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          start)
                    .count();
        }
    };

    const unsigned workers =
        static_cast<unsigned>(std::min<size_t>(opts.effectiveJobs(),
                                               count ? count : 1));
    if (workers <= 1) {
        for (size_t i = 0; i < count; ++i)
            timed(i);
    } else {
        std::atomic<size_t> next{0};
        auto worker = [&]() {
            while (true) {
                const size_t i = next.fetch_add(1);
                if (i >= count)
                    return;
                timed(i);
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    if (!failures.empty()) {
        std::sort(failures.begin(), failures.end());
        std::string msg = "cell " + std::to_string(failures[0].first) +
                          " failed: " + failures[0].second;
        if (failures.size() > 1) {
            msg += " (+" + std::to_string(failures.size() - 1) +
                   " more failing cells)";
        }
        COP_FATAL(msg);
    }
}

namespace {

void
field(std::string &out, const char *name, u64 value, bool comma = true)
{
    out += '"';
    out += name;
    out += "\":";
    out += std::to_string(static_cast<unsigned long long>(value));
    if (comma)
        out += ',';
}

void
fieldDouble(std::string &out, const char *name, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"%s\":%.17g,", name, value);
    out += buf;
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
            continue;
        }
        out += c;
    }
    return out;
}

void
appendResultsJson(std::string &out, const SystemResults &r)
{
    out += '{';
    fieldDouble(out, "ipc", r.ipc);
    field(out, "instructions", r.instructions);
    field(out, "cycles", r.cycles);
    field(out, "llc_misses", r.llcMisses);
    field(out, "writebacks", r.writebacks);
    field(out, "alias_pin_events", r.aliasPinEvents);
    field(out, "llc_hits", r.llc.hits);
    field(out, "llc_dirty_evictions", r.llc.dirtyEvictions);
    field(out, "llc_set_overflows", r.llc.setOverflows);
    field(out, "dram_reads", r.dram.reads);
    field(out, "dram_writes", r.dram.writes);
    field(out, "dram_row_hits", r.dram.rowHits);
    field(out, "dram_row_misses", r.dram.rowMisses);
    field(out, "dram_row_conflicts", r.dram.rowConflicts);
    field(out, "dram_refresh_stalls", r.dram.refreshStalls);
    field(out, "dram_total_read_latency", r.dram.totalReadLatency);
    field(out, "mem_reads", r.mem.reads);
    field(out, "mem_writes", r.mem.writes);
    field(out, "protected_writes", r.mem.protectedWrites);
    field(out, "unprotected_writes", r.mem.unprotectedWrites);
    field(out, "alias_rejects", r.mem.aliasRejects);
    field(out, "meta_reads", r.mem.metaReads);
    field(out, "meta_writes", r.mem.metaWrites);
    field(out, "meta_cache_hits", r.mem.metaCacheHits);
    field(out, "meta_cache_misses", r.mem.metaCacheMisses);
    field(out, "scheme_writes_msb", r.mem.schemeWrites[0]);
    field(out, "scheme_writes_rle", r.mem.schemeWrites[1]);
    field(out, "scheme_writes_txt", r.mem.schemeWrites[2]);
    field(out, "codec_encode_calls", r.mem.encodeCalls);
    field(out, "codec_scheme_trials", r.mem.schemeTrials);
    field(out, "ever_uncompressed_blocks", r.everUncompressedBlocks);
    field(out, "touched_blocks", r.touchedBlocks);
    field(out, "ecc_region_bytes", r.eccRegionBytes);
    field(out, "ecc_region_bytes_no_dealloc", r.eccRegionBytesNoDealloc);
    field(out, "err_fault_events", r.errors.faultEvents);
    field(out, "err_bits_flipped", r.errors.bitsFlipped);
    field(out, "err_cold_faults", r.errors.coldFaults);
    field(out, "err_faults_on_retired_pages",
          r.errors.faultsOnRetiredPages);
    field(out, "err_benign", r.errors.benign);
    field(out, "err_corrected", r.errors.corrected);
    field(out, "err_detected", r.errors.detected);
    field(out, "err_silent", r.errors.silent);
    field(out, "err_read_retries", r.errors.readRetries);
    field(out, "err_retry_dram_reads", r.errors.retryDramReads);
    field(out, "err_scrub_on_read_writes", r.errors.scrubOnReadWrites);
    field(out, "err_recovery_rewrites", r.errors.recoveryRewrites);
    field(out, "err_retired_pages", r.errors.retiredPages);
    field(out, "err_scrubbed_blocks", r.errors.scrubbedBlocks);
    field(out, "err_scrub_reads", r.errors.scrubReads);
    field(out, "err_scrub_writes", r.errors.scrubWrites);
    field(out, "err_scrub_corrected", r.errors.scrubCorrected);
    field(out, "err_scrub_detected", r.errors.scrubDetected);
    // Observability-layer additions. Strictly after every pre-existing
    // field: downstream consumers (and the byte-stability test) rely on
    // the prefix up to err_scrub_detected never changing.
    field(out, "dram_refresh_stalls_cas", r.dram.refreshStallsCas);
    const HistogramSummary read_lat = r.dram.readLatency.summary();
    const HistogramSummary write_lat = r.dram.writeLatency.summary();
    field(out, "dram_read_lat_p50", read_lat.p50);
    field(out, "dram_read_lat_p95", read_lat.p95);
    field(out, "dram_read_lat_p99", read_lat.p99);
    field(out, "dram_read_lat_max", read_lat.max);
    field(out, "dram_write_lat_p50", write_lat.p50);
    field(out, "dram_write_lat_p95", write_lat.p95);
    field(out, "dram_write_lat_p99", write_lat.p99);
    field(out, "dram_write_lat_max", write_lat.max);
    // Functional-memory perf counter — again appended strictly after
    // everything that existed before it.
    field(out, "pool_block_for_calls", r.poolBlockForCalls);
    // Bus-timing additions — appended strictly after everything that
    // existed before them (same convention).
    field(out, "dram_total_write_latency", r.dram.totalWriteLatency);
    field(out, "dram_bus_busy_cycles", r.dram.busBusyCycles);
    field(out, "dram_bus_turnarounds", r.dram.busTurnarounds);
    // On-die ECC + adaptive-capacity additions — appended strictly
    // after everything that existed before them (same convention).
    field(out, "err_inject_skipped", r.errors.injectSkipped);
    field(out, "ondie_injected", r.errors.ondieInjected);
    field(out, "ondie_corrected", r.errors.ondieCorrected);
    field(out, "ondie_miscorrected", r.errors.ondieMiscorrected);
    field(out, "ondie_forwarded", r.errors.ondieForwarded);
    field(out, "adaptive_slots_reclaimed", r.adaptive.slotsReclaimed);
    field(out, "adaptive_demotions", r.adaptive.demotions);
    field(out, "adaptive_victim_evictions", r.adaptive.victimEvictions);
    field(out, "adaptive_released_blocks_hw",
          r.adaptive.releasedBlocksHighWater);
    // Fast-timing divergence accounting — appended strictly after
    // everything that existed before it (same convention). All zero
    // for exact-mode runs, so those stay byte-identical to builds
    // without the mode; a fast-timing run's approximation is always
    // visible right here, never hidden.
    field(out, "fast_timing", r.fastTiming ? 1 : 0);
    field(out, "ft_shards", r.ftShards);
    field(out, "ft_quantum_epochs", r.ftQuantumEpochs);
    field(out, "ft_barriers", r.ftBarriers);
    field(out, "ft_ambient_stall_cycles", r.dram.ambientStallCycles);
    field(out, "ft_ambient_row_closes", r.dram.ambientRowCloses);
    field(out, "ft_clock_skew_max", r.ftClockSkewMax);
    field(out, "ft_version_merges", r.ftVersionMerges, false);
    out += '}';
}

} // namespace cop
