/**
 * @file
 * The codec perf counters. EncodeCounter only observes: every encode
 * runs the codec, so counted encodes must match direct codec calls
 * block for block. The EncodeMemo cases pin the compatibility name's
 * contract (size ignored, no hits); the System cases check that COP
 * runs fill the counters and that other schemes leave them at zero.
 */

#include <gtest/gtest.h>

#include "core/encode_counter.hpp"
#include "sim/system.hpp"
#include "workloads/block_gen.hpp"

namespace cop {
namespace {

bool
sameEncode(const CopEncodeResult &a, const CopEncodeResult &b)
{
    return a.status == b.status && a.scheme == b.scheme &&
           a.stored == b.stored;
}

TEST(EncodeMemo, MemoizedResultsMatchDirectEncodes)
{
    const CopCodec codec(CopConfig::fourByte());
    EncodeMemo memo(64);
    Rng rng(11);
    BlockGenParams params;
    for (int iter = 0; iter < 4000; ++iter) {
        const auto block = generateBlock(
            static_cast<BlockCategory>(rng.below(kBlockCategories)),
            params, rng);
        ASSERT_TRUE(sameEncode(memo.encode(codec, block),
                               codec.encode(block)));
    }
    EXPECT_EQ(memo.lookups(), 4000u);
    EXPECT_EQ(memo.hits(), 0u);
}

TEST(EncodeMemo, CountingOnlyModeNeverCaches)
{
    const CopCodec codec(CopConfig::fourByte());
    EncodeMemo memo(0);
    const CacheBlock block{};
    ASSERT_TRUE(sameEncode(memo.encode(codec, block),
                           codec.encode(block)));
    memo.encode(codec, block);
    EXPECT_EQ(memo.lookups(), 2u);
    EXPECT_EQ(memo.hits(), 0u);
    // The all-zero block is admitted by the first scheme it tries.
    EXPECT_EQ(memo.schemeTrials(), 2u);
}

SystemConfig
counterConfig(ControllerKind kind)
{
    SystemConfig cfg;
    cfg.cores = 2;
    cfg.kind = kind;
    cfg.epochsPerCore = 1200;
    cfg.llc = CacheConfig{256ULL << 10, 8, 34};
    cfg.verifyData = true;
    return cfg;
}

TEST(EncodeMemoSystem, CountersAccumulateOnCopRuns)
{
    const auto &profile = WorkloadRegistry::byName("gcc");
    System sys(profile, counterConfig(ControllerKind::Cop4));
    const SystemResults r = sys.run();
    EXPECT_GT(r.mem.encodeCalls, 0u);
    EXPECT_GT(r.mem.schemeTrials, 0u);
}

TEST(EncodeMemoSystem, NonCopControllersReportZeroCounters)
{
    const auto &profile = WorkloadRegistry::byName("gcc");
    System sys(profile, counterConfig(ControllerKind::EccDimm));
    const SystemResults r = sys.run();
    EXPECT_EQ(r.mem.encodeCalls, 0u);
    EXPECT_EQ(r.mem.schemeTrials, 0u);
}

} // namespace
} // namespace cop
