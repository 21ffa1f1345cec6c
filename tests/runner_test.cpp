/**
 * @file
 * Tests for the experiment runner: index-keyed result ordering under
 * concurrency, serial/parallel determinism of a small system grid
 * (byte-identical JSON serialisation), option parsing, the cell key
 * that lets the figures driver run a shared cell once, and the strict
 * numeric-parse helper the runner and tools share.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/parse.hpp"
#include "sim/runner.hpp"

namespace cop {
namespace {

RunnerOptions
serialOpts()
{
    RunnerOptions opts;
    opts.serial = true;
    return opts;
}

RunnerOptions
threadedOpts(unsigned jobs)
{
    RunnerOptions opts;
    opts.jobs = jobs;
    return opts;
}

TEST(Runner, ExecutesEveryIndexExactlyOnce)
{
    constexpr size_t kCount = 64;
    std::vector<std::atomic<int>> hits(kCount);
    runIndexed(
        kCount, [&](size_t i) { hits[i].fetch_add(1); },
        threadedOpts(4));
    for (size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Runner, CollectsResultsInSubmissionOrder)
{
    const std::vector<u64> serial = runCollected<u64>(
        100, [](size_t i) { return i * i; }, serialOpts());
    const std::vector<u64> parallel = runCollected<u64>(
        100, [](size_t i) { return i * i; }, threadedOpts(8));
    EXPECT_EQ(serial, parallel);
    EXPECT_EQ(serial[7], 49u);
}

TEST(Runner, CapturesPerCellWallTimes)
{
    std::vector<double> wall_ms;
    runIndexed(
        5, [](size_t) {}, threadedOpts(2), &wall_ms);
    ASSERT_EQ(wall_ms.size(), 5u);
    for (const double ms : wall_ms)
        EXPECT_GE(ms, 0.0);
}

TEST(Runner, ZeroCellsIsANoOp)
{
    std::vector<double> wall_ms{1.0};
    runIndexed(
        0, [](size_t) { FAIL() << "job ran"; }, threadedOpts(4),
        &wall_ms);
    EXPECT_TRUE(wall_ms.empty());
}

/** A tiny (benchmark x scheme) grid, serialised to JSON. */
std::string
gridJson(const RunnerOptions &opts)
{
    static const char *names[] = {"mcf", "lbm"};
    static const ControllerKind kinds[] = {ControllerKind::Unprotected,
                                           ControllerKind::Cop4};
    struct Cell
    {
        const WorkloadProfile *profile;
        ControllerKind kind;
    };
    std::vector<Cell> cells;
    for (const char *name : names) {
        for (const ControllerKind kind : kinds)
            cells.push_back({&WorkloadRegistry::byName(name), kind});
    }

    const std::vector<SystemResults> results =
        runCollected<SystemResults>(
            cells.size(),
            [&](size_t i) {
                SystemConfig cfg;
                cfg.cores = 2;
                cfg.kind = cells[i].kind;
                cfg.epochsPerCore = 120;
                System sys(*cells[i].profile, cfg);
                return sys.run();
            },
            opts);

    std::string json;
    for (const SystemResults &r : results) {
        appendResultsJson(json, r);
        json += '\n';
    }
    return json;
}

TEST(Runner, SystemGridIsDeterministicAcrossWorkerCounts)
{
    // The tentpole invariant: a (benchmark x scheme) grid run with 4
    // threads serialises byte-identically to the serial run.
    const std::string serial = gridJson(serialOpts());
    const std::string parallel = gridJson(threadedOpts(4));
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);

    // Sanity: the serialisation actually carries simulation output.
    EXPECT_NE(serial.find("\"ipc\":"), std::string::npos);
    EXPECT_NE(serial.find("\"dram_reads\":"), std::string::npos);
}

TEST(Runner, ThrowingCellFailsLoudlyByName)
{
    // Regression: an exception escaping a worker used to reach
    // std::terminate with no indication of which grid cell died.
    const auto job = [](size_t i) {
        if (i == 3)
            throw std::runtime_error("boom");
    };
    EXPECT_DEATH(runIndexed(8, job, serialOpts()),
                 "cell 3 failed: boom");
    EXPECT_DEATH(runIndexed(8, job, threadedOpts(4)),
                 "cell 3 failed: boom");
}

TEST(Runner, MultipleThrowingCellsReportFirstAndCount)
{
    const auto job = [](size_t i) {
        if (i >= 5)
            throw std::runtime_error("bad cell");
    };
    EXPECT_DEATH(runIndexed(8, job, serialOpts()),
                 "cell 5 failed: bad cell \\(\\+2 more failing cells\\)");
}

/** A tiny fault-injection grid, serialised to JSON. */
std::string
faultGridJson(const RunnerOptions &opts)
{
    static const ControllerKind kinds[] = {
        ControllerKind::EccDimm, ControllerKind::Cop4,
        ControllerKind::CopEr, ControllerKind::Unprotected};

    // Shrink the working set so Poisson strikes find warm images.
    WorkloadProfile profile = WorkloadRegistry::byName("mcf");
    profile.footprintBlocks = 1u << 12;

    const std::vector<SystemResults> results =
        runCollected<SystemResults>(
            std::size(kinds),
            [&](size_t i) {
                SystemConfig cfg;
                cfg.cores = 2;
                cfg.kind = kinds[i];
                cfg.epochsPerCore = 400;
                cfg.llc = CacheConfig{64ULL << 10, 8, 34};
                cfg.fault.enabled = true;
                cfg.fault.eventsPerMegacycle = 200.0;
                cfg.fault.flipsPerEvent = 1;
                cfg.fault.seed = 0xD1CE;
                cfg.fault.scrubIntervalCycles = 200000;
                System sys(profile, cfg);
                return sys.run();
            },
            opts);

    std::string json;
    for (const SystemResults &r : results) {
        appendResultsJson(json, r);
        json += '\n';
    }
    return json;
}

TEST(Runner, FaultGridIsDeterministicAcrossWorkerCounts)
{
    // Acceptance: for a fixed seed the ErrorLog — like every other
    // metric — serialises byte-identically serial vs 4 workers.
    const std::string serial = faultGridJson(serialOpts());
    const std::string parallel = faultGridJson(threadedOpts(4));
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("\"err_fault_events\":"), std::string::npos);
    // The grid actually injected something.
    EXPECT_EQ(serial.find("\"err_fault_events\":0,"), std::string::npos);
}

TEST(Runner, OptionsDefaultToHardwareConcurrency)
{
    ASSERT_EQ(unsetenv("COP_BENCH_JOBS"), 0);
    const RunnerOptions opts = parseRunnerOptions(0, nullptr);
    EXPECT_FALSE(opts.serial);
    EXPECT_EQ(opts.jobs, 0u);
    EXPECT_GE(opts.effectiveJobs(), 1u);
}

TEST(Runner, OptionsParseEnvAndArgs)
{
    ASSERT_EQ(setenv("COP_BENCH_JOBS", "3", 1), 0);
    {
        const RunnerOptions opts = parseRunnerOptions(0, nullptr);
        EXPECT_EQ(opts.jobs, 3u);
        EXPECT_EQ(opts.effectiveJobs(), 3u);
    }
    {
        const char *argv[] = {"bench", "--jobs", "7"};
        const RunnerOptions opts =
            parseRunnerOptions(3, const_cast<char **>(argv));
        EXPECT_EQ(opts.jobs, 7u); // --jobs overrides the environment
    }
    {
        const char *argv[] = {"bench", "--serial"};
        const RunnerOptions opts =
            parseRunnerOptions(2, const_cast<char **>(argv));
        EXPECT_TRUE(opts.serial);
        EXPECT_EQ(opts.effectiveJobs(), 1u);
    }
    ASSERT_EQ(unsetenv("COP_BENCH_JOBS"), 0);
}

TEST(Runner, BadJobCountsAreFatal)
{
    ASSERT_EQ(setenv("COP_BENCH_JOBS", "0", 1), 0);
    EXPECT_DEATH(parseRunnerOptions(0, nullptr), "must be nonzero");
    ASSERT_EQ(setenv("COP_BENCH_JOBS", "four", 1), 0);
    EXPECT_DEATH(parseRunnerOptions(0, nullptr), "not a valid number");
    ASSERT_EQ(unsetenv("COP_BENCH_JOBS"), 0);
}

/** Table-1-like cell config for the cell-key tests. */
SystemConfig
keyConfig()
{
    SystemConfig cfg;
    cfg.kind = ControllerKind::CopEr;
    cfg.epochsPerCore = 12000;
    return cfg;
}

TEST(CellKey, SameConfigUnderTwoLabelsIsOneCell)
{
    // Labels live with the figure, not in the cell: fig12's COP-ER
    // cell and fig11's "COP-ER" column are one simulation.
    const WorkloadProfile &mcf = WorkloadRegistry::byName("mcf");
    const WorkloadProfile copy = mcf;
    EXPECT_TRUE(sameCell(mcf, keyConfig(), copy, keyConfig()));
    EXPECT_FALSE(sameCell(mcf, keyConfig(),
                          WorkloadRegistry::byName("lbm"), keyConfig()));
}

TEST(CellKey, EverySingleFieldChangeSplitsTheCell)
{
    using Edit = void (*)(SystemConfig &);
    static const std::pair<const char *, Edit> edits[] = {
        {"cores", [](SystemConfig &c) { c.cores = 2; }},
        {"llc.sizeBytes", [](SystemConfig &c) { c.llc.sizeBytes /= 2; }},
        {"llc.ways", [](SystemConfig &c) { c.llc.ways = 8; }},
        {"llc.latency", [](SystemConfig &c) { c.llc.latency += 1; }},
        {"dram.channels", [](SystemConfig &c) { c.dram.channels = 1; }},
        {"dram.ranksPerChannel",
         [](SystemConfig &c) { c.dram.ranksPerChannel = 1; }},
        {"dram.banksPerRank",
         [](SystemConfig &c) { c.dram.banksPerRank = 4; }},
        {"dram.capacityBytes",
         [](SystemConfig &c) { c.dram.capacityBytes /= 2; }},
        {"dram.rowBytes", [](SystemConfig &c) { c.dram.rowBytes = 4096; }},
        {"dram.rowPolicy",
         [](SystemConfig &c) { c.dram.rowPolicy = RowPolicy::Closed; }},
        {"dram.tRCD", [](SystemConfig &c) { c.dram.tRCD += 1; }},
        {"dram.tCL", [](SystemConfig &c) { c.dram.tCL += 1; }},
        {"dram.tCWL", [](SystemConfig &c) { c.dram.tCWL += 1; }},
        {"dram.tRP", [](SystemConfig &c) { c.dram.tRP += 1; }},
        {"dram.tRAS", [](SystemConfig &c) { c.dram.tRAS += 1; }},
        {"dram.tBURST", [](SystemConfig &c) { c.dram.tBURST += 1; }},
        {"dram.tWR", [](SystemConfig &c) { c.dram.tWR += 1; }},
        {"dram.tRTP", [](SystemConfig &c) { c.dram.tRTP += 1; }},
        {"dram.tRRD", [](SystemConfig &c) { c.dram.tRRD += 1; }},
        {"dram.tFAW", [](SystemConfig &c) { c.dram.tFAW += 1; }},
        {"dram.tCCD", [](SystemConfig &c) { c.dram.tCCD += 1; }},
        {"dram.tWTR", [](SystemConfig &c) { c.dram.tWTR += 1; }},
        {"dram.tRTW", [](SystemConfig &c) { c.dram.tRTW += 1; }},
        {"dram.refreshEnabled",
         [](SystemConfig &c) { c.dram.refreshEnabled = false; }},
        {"dram.tREFI", [](SystemConfig &c) { c.dram.tREFI += 1; }},
        {"dram.tRFC", [](SystemConfig &c) { c.dram.tRFC += 1; }},
        {"kind", [](SystemConfig &c) { c.kind = ControllerKind::Cop4; }},
        {"decodeLatency", [](SystemConfig &c) { c.decodeLatency = 8; }},
        {"metaCacheBytes", [](SystemConfig &c) { c.metaCacheBytes /= 2; }},
        {"epochsPerCore", [](SystemConfig &c) { c.epochsPerCore = 300; }},
        {"verifyData", [](SystemConfig &c) { c.verifyData = false; }},
        {"proactiveAliasCheck",
         [](SystemConfig &c) { c.proactiveAliasCheck = true; }},
        {"seedSalt", [](SystemConfig &c) { c.seedSalt = 1; }},
        {"fault.enabled", [](SystemConfig &c) { c.fault.enabled = true; }},
        {"fault.eventsPerMegacycle",
         [](SystemConfig &c) { c.fault.eventsPerMegacycle = 800.0; }},
        {"fault.flipsPerEvent",
         [](SystemConfig &c) { c.fault.flipsPerEvent = 2; }},
        {"fault.ondieEcc", [](SystemConfig &c) { c.fault.ondieEcc = true; }},
        {"fault.seed", [](SystemConfig &c) { c.fault.seed += 1; }},
        {"fault.scrubIntervalCycles",
         [](SystemConfig &c) { c.fault.scrubIntervalCycles = 250000; }},
        {"fault.recovery.maxReadRetries",
         [](SystemConfig &c) { c.fault.recovery.maxReadRetries += 1; }},
        {"fault.recovery.retirePageThreshold",
         [](SystemConfig &c) { c.fault.recovery.retirePageThreshold += 1; }},
        {"fault.recovery.pageBytes",
         [](SystemConfig &c) { c.fault.recovery.pageBytes *= 2; }},
        {"fault.campaign",
         [](SystemConfig &c) { c.fault.campaign.push_back({}); }},
        {"traceStatsEpochInterval",
         [](SystemConfig &c) { c.traceStatsEpochInterval += 1; }},
        {"adaptiveEccCapacity",
         [](SystemConfig &c) { c.adaptiveEccCapacity = true; }},
        {"simThreads", [](SystemConfig &c) { c.simThreads = 2; }},
        {"fastTiming", [](SystemConfig &c) { c.fastTiming = true; }},
        {"fastTimingQuantumEpochs",
         [](SystemConfig &c) { c.fastTimingQuantumEpochs += 1; }},
    };
    const WorkloadProfile &mcf = WorkloadRegistry::byName("mcf");
    for (const auto &[field, edit] : edits) {
        SystemConfig changed = keyConfig();
        edit(changed);
        EXPECT_FALSE(sameCell(mcf, keyConfig(), mcf, changed)) << field;
    }

    // fault_campaign shrinks the working set under the stock name.
    WorkloadProfile shrunk = mcf;
    shrunk.footprintBlocks = 1u << 13;
    EXPECT_FALSE(sameCell(mcf, keyConfig(), shrunk, keyConfig()));
}

TEST(CellKey, TracedOrReplayedCellsNeverMerge)
{
    const WorkloadProfile &mcf = WorkloadRegistry::byName("mcf");
    SystemConfig traced = keyConfig();
    traced.traceStatsPath = "cell.jsonl";
    EXPECT_FALSE(sameCell(mcf, traced, mcf, traced));
    EXPECT_FALSE(sameCell(mcf, keyConfig(), mcf, traced));

    SystemConfig replayed = keyConfig();
    replayed.epochSource = [](unsigned) {
        return std::unique_ptr<EpochSource>();
    };
    EXPECT_FALSE(sameCell(mcf, replayed, mcf, replayed));
    EXPECT_FALSE(sameCell(mcf, replayed, mcf, keyConfig()));
}

TEST(Parse, AcceptsPlainDecimals)
{
    EXPECT_EQ(parseU64("0", "x"), 0u);
    EXPECT_EQ(parseU64("12000", "x"), 12000u);
    EXPECT_EQ(parsePositiveU64("12000", "x"), 12000u);
    EXPECT_EQ(parsePositiveU64("1", "x"), 1u);
}

TEST(Parse, RejectsMalformedInput)
{
    EXPECT_DEATH(parseU64("", "opt"), "empty value");
    EXPECT_DEATH(parseU64(nullptr, "opt"), "empty value");
    EXPECT_DEATH(parseU64("12x", "opt"), "not a valid number");
    EXPECT_DEATH(parseU64("x12", "opt"), "not a valid number");
    EXPECT_DEATH(parseU64(" 12", "opt"), "not a valid number");
    EXPECT_DEATH(parseU64("-1", "opt"), "not a valid number");
    EXPECT_DEATH(parseU64("+1", "opt"), "not a valid number");
    EXPECT_DEATH(parseU64("99999999999999999999999", "opt"),
                 "out of range");
    EXPECT_DEATH(parsePositiveU64("0", "opt"), "must be nonzero");
}

TEST(Parse, ErrorNamesTheOffendingOption)
{
    EXPECT_DEATH(parsePositiveU64("bogus", "COP_BENCH_EPOCHS"),
                 "COP_BENCH_EPOCHS");
}

} // namespace
} // namespace cop
