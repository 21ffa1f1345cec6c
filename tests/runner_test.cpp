/**
 * @file
 * Tests for the experiment runner: index-keyed result ordering under
 * concurrency, serial/parallel determinism of a small system grid
 * (byte-identical JSON serialisation), option parsing, and the strict
 * numeric-parse helper the runner and tools share.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>

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

TEST(Runner, SimThreadsWithoutFastTimingAreFatal)
{
    ASSERT_EQ(unsetenv("COP_FAST_TIMING"), 0);
    const char *argv[] = {"bench", "--sim-threads", "4"};
    EXPECT_DEATH(parseRunnerOptions(3, const_cast<char **>(argv)),
                 "needs --fast-timing");
    const char *fast[] = {"bench", "--sim-threads", "4", "--fast-timing"};
    const RunnerOptions opts =
        parseRunnerOptions(4, const_cast<char **>(fast));
    EXPECT_EQ(opts.simThreads, 4u);
    EXPECT_TRUE(opts.fastTiming);
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
