/**
 * @file
 * Observability-layer tests: histogram percentiles against
 * hand-computed distributions, StatsRegistry drain semantics (deltas,
 * emission order, exact JSONL shape), and the layer's hard invariant —
 * a System run with tracing enabled produces byte-identical results
 * JSON to one with tracing off, and the pre-existing field prefix of
 * that JSON never changes.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sim/runner.hpp"
#include "workloads/profile.hpp"

namespace cop {
namespace {

TEST(Histogram, ExactBelowSixteen)
{
    Histogram h;
    for (u64 v = 0; v < 16; ++v) {
        EXPECT_EQ(Histogram::indexOf(v), v);
        EXPECT_EQ(Histogram::lowerBound(static_cast<unsigned>(v)), v);
    }
    h.record(3);
    h.record(7);
    h.record(7);
    h.record(12);
    EXPECT_EQ(h.percentile(25), 3u);
    EXPECT_EQ(h.percentile(50), 7u);
    EXPECT_EQ(h.percentile(75), 7u);
    EXPECT_EQ(h.percentile(100), 12u);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 29u);
    EXPECT_EQ(h.maxValue(), 12u);
}

TEST(Histogram, PercentilesOfOneToHundred)
{
    // 1..100 once each. Rank r falls on value r; the reported
    // percentile is that value's bucket lower bound: exact below 16,
    // within one 1/16 sub-bucket above (92 covers 92..95, 96 covers
    // 96..99).
    Histogram h;
    for (u64 v = 1; v <= 100; ++v)
        h.record(v);
    EXPECT_EQ(h.percentile(50), 50u);
    EXPECT_EQ(h.percentile(95), 92u);
    EXPECT_EQ(h.percentile(99), 96u);
    EXPECT_EQ(h.maxValue(), 100u);
    EXPECT_EQ(h.sum(), 5050u);

    const HistogramSummary s = h.summary();
    EXPECT_EQ(s.count, 100u);
    EXPECT_EQ(s.p50, 50u);
    EXPECT_EQ(s.p95, 92u);
    EXPECT_EQ(s.p99, 96u);
    EXPECT_EQ(s.max, 100u);
}

TEST(Histogram, EmptyReportsZero)
{
    const Histogram h;
    EXPECT_EQ(h.percentile(50), 0u);
    EXPECT_EQ(h.percentile(99), 0u);
    const HistogramSummary s = h.summary();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.max, 0u);
    EXPECT_EQ(s.p99, 0u);
}

TEST(Histogram, BucketBoundsAreConsistent)
{
    // Every sample's bucket lower bound is <= the sample and within
    // 1/16 relative error; bucket indices are monotone in the value.
    u64 prev_index = 0;
    for (u64 v = 0; v < (1u << 20); v = v < 64 ? v + 1 : v + v / 7) {
        const unsigned idx = Histogram::indexOf(v);
        const u64 lo = Histogram::lowerBound(idx);
        EXPECT_LE(lo, v);
        EXPECT_GE(idx, prev_index);
        if (v >= 16) {
            EXPECT_LE(v - lo, v / 16);
        }
        prev_index = idx;
    }
    // Spot-check the top of the range doesn't overflow the table.
    EXPECT_LT(Histogram::indexOf(~u64{0}), Histogram::kBuckets);
}

/** The bucket index by a linear scan down from bit 63 — the reference. */
unsigned
linearIndexOf(u64 value)
{
    if (value < Histogram::kSubBuckets)
        return static_cast<unsigned>(value);
    unsigned msb = 63;
    while ((value >> msb) == 0)
        --msb;
    const unsigned sub = static_cast<unsigned>((value >> (msb - 4)) & 0xF);
    return (msb - 3) * Histogram::kSubBuckets + sub;
}

TEST(Histogram, IndexOfMatchesLinearMsbScan)
{
    const auto check = [](u64 v) {
        const unsigned idx = Histogram::indexOf(v);
        ASSERT_EQ(idx, linearIndexOf(v)) << "value " << v;
        ASSERT_LE(Histogram::lowerBound(idx), v) << "value " << v;
    };
    for (unsigned k = 4; k <= 63; ++k) {
        const u64 p = u64{1} << k;
        check(p - 1);
        check(p);
        check(p + 1);
    }
    check(~u64{0});
    // Random values over every magnitude: a random shift spreads the
    // draws across all 64 octaves instead of piling them at the top.
    Rng rng(2024);
    for (int i = 0; i < 100000; ++i)
        check(rng.next() >> rng.below(64));
}

TEST(StatsRegistry, DrainEmitsDeltasInRegistrationOrder)
{
    StatsRegistry reg;
    u64 a = 0, b = 0;
    Histogram lat;
    reg.gauge("x.alpha", [&] { return a; });
    reg.gauge("x.beta", [&] { return b; });
    reg.histogram("x.lat", &lat);
    EXPECT_EQ(reg.gaugeCount(), 2u);
    EXPECT_EQ(reg.histogramCount(), 1u);

    a = 5;
    b = 2;
    lat.record(10);
    lat.record(20);
    EXPECT_EQ(reg.drainEpochJson(0, 100),
              "{\"epoch\":0,\"cycle\":100,"
              "\"counters\":{\"x.alpha\":5,\"x.beta\":2},"
              "\"histograms\":{\"x.lat\":{\"count\":2,\"delta_count\":2,"
              "\"p50\":10,\"p95\":20,\"p99\":20,\"max\":20}}}");

    // Second drain: counters report deltas, histograms stay cumulative
    // but report the count delta alongside.
    a = 12;
    lat.record(10);
    EXPECT_EQ(reg.drainEpochJson(1, 250),
              "{\"epoch\":1,\"cycle\":250,"
              "\"counters\":{\"x.alpha\":7,\"x.beta\":0},"
              "\"histograms\":{\"x.lat\":{\"count\":3,\"delta_count\":1,"
              "\"p50\":10,\"p95\":20,\"p99\":20,\"max\":20}}}");
}

/**
 * The serialized field prefix every downstream consumer may rely on.
 * This is the complete pre-PR appendResultsJson layout; new fields are
 * only ever appended after it. If this test breaks, a field was
 * renamed, removed or reordered — that is a compatibility break, not a
 * test to update casually.
 */
const char *const kPinnedPrefix =
    "{\"ipc\":0,\"instructions\":0,\"cycles\":0,\"llc_misses\":0,"
    "\"writebacks\":0,\"alias_pin_events\":0,\"llc_hits\":0,"
    "\"llc_dirty_evictions\":0,\"llc_set_overflows\":0,\"dram_reads\":0,"
    "\"dram_writes\":0,\"dram_row_hits\":0,\"dram_row_misses\":0,"
    "\"dram_row_conflicts\":0,\"dram_refresh_stalls\":0,"
    "\"dram_total_read_latency\":0,\"mem_reads\":0,\"mem_writes\":0,"
    "\"protected_writes\":0,\"unprotected_writes\":0,\"alias_rejects\":0,"
    "\"meta_reads\":0,\"meta_writes\":0,\"meta_cache_hits\":0,"
    "\"meta_cache_misses\":0,\"scheme_writes_msb\":0,"
    "\"scheme_writes_rle\":0,\"scheme_writes_txt\":0,"
    "\"codec_encode_calls\":0,\"codec_scheme_trials\":0,"
    "\"ever_uncompressed_blocks\":0,\"touched_blocks\":0,"
    "\"ecc_region_bytes\":0,"
    "\"ecc_region_bytes_no_dealloc\":0,\"err_fault_events\":0,"
    "\"err_bits_flipped\":0,\"err_cold_faults\":0,"
    "\"err_faults_on_retired_pages\":0,\"err_benign\":0,"
    "\"err_corrected\":0,\"err_detected\":0,\"err_silent\":0,"
    "\"err_read_retries\":0,\"err_retry_dram_reads\":0,"
    "\"err_scrub_on_read_writes\":0,\"err_recovery_rewrites\":0,"
    "\"err_retired_pages\":0,\"err_scrubbed_blocks\":0,"
    "\"err_scrub_reads\":0,\"err_scrub_writes\":0,"
    "\"err_scrub_corrected\":0,\"err_scrub_detected\":0";

TEST(ResultsJson, PreExistingFieldPrefixIsPinned)
{
    std::string json;
    appendResultsJson(json, SystemResults{});
    ASSERT_GE(json.size(), std::string(kPinnedPrefix).size());
    EXPECT_EQ(json.substr(0, std::string(kPinnedPrefix).size()),
              kPinnedPrefix);
    // The observability additions live strictly after the prefix.
    EXPECT_NE(json.find("\"dram_refresh_stalls_cas\":", 0),
              std::string::npos);
    EXPECT_GT(json.find("\"dram_refresh_stalls_cas\":"),
              json.find("\"err_scrub_detected\":"));
    EXPECT_EQ(json.back(), '}');
}

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.kind = ControllerKind::Cop4;
    cfg.epochsPerCore = 200;
    return cfg;
}

TEST(StatsTrace, TracingOnIsByteIdenticalToTracingOff)
{
    const WorkloadProfile &profile = WorkloadRegistry::byName("mcf");
    const std::filesystem::path trace =
        std::filesystem::temp_directory_path() /
        "cop_stats_test_trace.jsonl";
    std::filesystem::remove(trace);

    SystemConfig off_cfg = smallConfig();
    System off_sys(profile, off_cfg);
    const SystemResults off = off_sys.run();

    SystemConfig on_cfg = smallConfig();
    on_cfg.traceStatsPath = trace.string();
    on_cfg.traceStatsEpochInterval = 64;
    System on_sys(profile, on_cfg);
    const SystemResults on = on_sys.run();

    // Tracing observes the run; it must not perturb it. Compare the
    // complete serialized results byte-for-byte.
    std::string off_json, on_json;
    appendResultsJson(off_json, off);
    appendResultsJson(on_json, on);
    EXPECT_EQ(off_json, on_json);

    // The trace itself: one snapshot per interval (200 epochs/core x 4
    // cores / 64) plus the final one, each a JSON object carrying the
    // per-subsystem namespaces.
    std::ifstream in(trace);
    ASSERT_TRUE(in.is_open());
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    EXPECT_GE(lines.size(),
              off.instructions ? 2u : 1u); // interval drains + final
    for (const std::string &line : lines) {
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
    }
    EXPECT_NE(lines[0].find("\"dram.reads\":"), std::string::npos);
    EXPECT_NE(lines[0].find("\"mem.fills\":"), std::string::npos);
    EXPECT_NE(lines[0].find("\"codec.encode_calls\":"),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"dram.read_latency\":"),
              std::string::npos);
    std::filesystem::remove(trace);
}

TEST(StatsTrace, SystemRegistersEverySubsystem)
{
    const WorkloadProfile &profile = WorkloadRegistry::byName("mcf");
    SystemConfig cfg = smallConfig();
    System sys(profile, cfg);
    // DRAM (7) + controller mem/err (18) + codec (3) + llc/sys (6).
    EXPECT_GE(sys.statsRegistry().gaugeCount(), 30u);
    EXPECT_GE(sys.statsRegistry().histogramCount(), 2u);
}

} // namespace
} // namespace cop
