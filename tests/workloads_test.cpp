/**
 * @file
 * Tests for the synthetic workload layer: registry completeness
 * (Table 2 and the figure sets), block-generator properties (each
 * category compressible by the scheme that targets it), functional
 * memory determinism, and trace-generator shape.
 */

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "common/rng.hpp"
#include "compress/combined.hpp"
#include "compress/fpc.hpp"
#include "compress/msb.hpp"
#include "compress/rle.hpp"
#include "compress/txt.hpp"
#include "workloads/trace_gen.hpp"

namespace cop {
namespace {

TEST(Registry, Table2HasTwentyMemoryIntensiveBenchmarks)
{
    EXPECT_EQ(WorkloadRegistry::memoryIntensive().size(), 20u);
}

TEST(Registry, Table2Members)
{
    static const char *expected[] = {
        // SPECint 2006
        "astar", "bzip2", "gcc", "mcf", "omnetpp", "perlbench", "sjeng",
        "xalancbmk",
        // SPECfp 2006
        "bwaves", "cactusADM", "GemsFDTD", "lbm", "milc", "soplex",
        "wrf", "zeusmp",
        // PARSEC
        "canneal", "fluidanimate", "streamcluster", "x264"};
    std::set<std::string> have;
    for (const auto *p : WorkloadRegistry::memoryIntensive())
        have.insert(p->name);
    for (const char *name : expected)
        EXPECT_TRUE(have.count(name)) << name;
}

TEST(Registry, Figure4SeventeenSpecFp)
{
    const auto fp = WorkloadRegistry::specFpFigure4();
    EXPECT_EQ(fp.size(), 17u);
    for (const auto *p : fp)
        EXPECT_EQ(p->suite, Suite::SpecFp);
}

TEST(Registry, Figure1Benchmarks)
{
    const auto f1 = WorkloadRegistry::specIntFigure1();
    ASSERT_EQ(f1.size(), 4u);
    EXPECT_EQ(f1[2]->name, "libquantum");
}

TEST(Registry, MixesAreNormalised)
{
    for (const auto &p : WorkloadRegistry::all()) {
        double total = 0;
        for (const double w : p.mix.weight)
            total += w;
        EXPECT_NEAR(total, 1.0, 1e-9) << p.name;
    }
}

TEST(Registry, ParsecSharesFootprint)
{
    for (const auto *p : WorkloadRegistry::bySuite(Suite::Parsec))
        EXPECT_TRUE(p->sharedFootprint) << p->name;
    for (const auto *p : WorkloadRegistry::bySuite(Suite::SpecInt))
        EXPECT_FALSE(p->sharedFootprint) << p->name;
}

TEST(Registry, UnknownBenchmarkIsFatal)
{
    EXPECT_DEATH(WorkloadRegistry::byName("doom3"), "unknown benchmark");
}

// ---------------------------------------------------------------------
// Generator / scheme affinity: each category must be compressible by
// the scheme engineered for it (the premise of the mix calibration).
// ---------------------------------------------------------------------

class CategoryAffinity : public ::testing::Test
{
  protected:
    BlockGenParams params;
    Rng rng{99};

    double
    fractionCompressible(BlockCategory c, const BlockCompressor &comp,
                         unsigned budget, int n = 300)
    {
        int ok = 0;
        for (int i = 0; i < n; ++i)
            ok += comp.canCompress(generateBlock(c, params, rng), budget);
        return static_cast<double>(ok) / n;
    }
};

TEST_F(CategoryAffinity, TextCompressesUnderTxtOnly)
{
    const TxtCompressor txt;
    const MsbCompressor msb(5, true);
    EXPECT_EQ(fractionCompressible(BlockCategory::Text, txt, 478), 1.0);
    EXPECT_LT(fractionCompressible(BlockCategory::Text, msb, 478), 0.05);
}

TEST_F(CategoryAffinity, FpSimilarNeedsMsb)
{
    params.fpExponentSpread = 0;
    const MsbCompressor msb(5, true);
    const RleCompressor rle;
    const FpcCompressor fpc;
    EXPECT_GT(fractionCompressible(BlockCategory::FpSimilar, msb, 478),
              0.99);
    EXPECT_LT(fractionCompressible(BlockCategory::FpSimilar, rle, 478),
              0.1);
    EXPECT_LT(fractionCompressible(BlockCategory::FpSimilar, fpc, 478),
              0.05);
}

TEST_F(CategoryAffinity, MixedSignIntsNeedRleNotMsb)
{
    params.intNegativeProb = 0.5;
    const MsbCompressor msb(5, true);
    const RleCompressor rle;
    EXPECT_GT(fractionCompressible(BlockCategory::SmallInt64, rle, 478),
              0.99);
    EXPECT_LT(fractionCompressible(BlockCategory::SmallInt64, msb, 478),
              0.1);
}

TEST_F(CategoryAffinity, PointersCompressEverywhereExceptTxt)
{
    const MsbCompressor msb(5, true);
    const RleCompressor rle;
    const FpcCompressor fpc;
    EXPECT_GT(fractionCompressible(BlockCategory::Pointer, msb, 478), .99);
    EXPECT_GT(fractionCompressible(BlockCategory::Pointer, rle, 478), .99);
    EXPECT_GT(fractionCompressible(BlockCategory::Pointer, fpc, 478), .99);
}

TEST_F(CategoryAffinity, RandomIsIncompressible)
{
    const CombinedCompressor combined(4);
    Rng local(5);
    int ok = 0;
    for (int i = 0; i < 500; ++i) {
        ok += combined.compressible(
            generateBlock(BlockCategory::Random, params, local));
    }
    EXPECT_LT(ok, 5);
}

TEST_F(CategoryAffinity, MixedWordsCompressibleAt4ButNot8Bytes)
{
    params.mixedRandomWords = 12;
    const RleCompressor rle;
    EXPECT_GT(
        fractionCompressible(BlockCategory::MixedWords, rle, 478), 0.8);
    EXPECT_LT(
        fractionCompressible(BlockCategory::MixedWords, rle, 446), 0.35);
}

TEST_F(CategoryAffinity, FpExponentSpreadHurts8ByteConfigMore)
{
    params.fpExponentSpread = 12;
    params.fpNegativeProb = 0.3;
    const MsbCompressor msb4(5, true);
    const MsbCompressor msb8(10, true);
    const double at4 =
        fractionCompressible(BlockCategory::FpSimilar, msb4, 478);
    const double at8 =
        fractionCompressible(BlockCategory::FpSimilar, msb8, 446);
    EXPECT_GT(at4, at8 + 0.1);
}

// ---------------------------------------------------------------------
// Functional memory.
// ---------------------------------------------------------------------

TEST(ContentPool, DeterministicPerAddress)
{
    const auto &prof = WorkloadRegistry::byName("mcf");
    BlockContentPool a(prof), b(prof);
    for (Addr addr = 0; addr < 100 * kBlockBytes; addr += kBlockBytes) {
        EXPECT_EQ(a.blockFor(addr), b.blockFor(addr));
        EXPECT_EQ(a.categoryOf(addr), b.categoryOf(addr));
    }
}

TEST(ContentPool, VersionBumpChangesContentButNotCategory)
{
    const auto &prof = WorkloadRegistry::byName("mcf");
    BlockContentPool pool(prof);
    const Addr addr = 42 * kBlockBytes;
    const BlockCategory cat = pool.categoryOf(addr);
    const CacheBlock before = pool.blockFor(addr);
    pool.bumpVersion(addr);
    EXPECT_EQ(pool.categoryOf(addr), cat);
    if (cat != BlockCategory::Zero) {
        EXPECT_NE(pool.blockFor(addr), before);
    }
    // And it is stable at the new version.
    EXPECT_EQ(pool.blockFor(addr), pool.blockFor(addr));
}

TEST(ContentPool, VersionBumpChangesExactlyThatBlock)
{
    const auto &profile = WorkloadRegistry::byName("gcc");
    BlockContentPool pool(profile, 0);
    const Addr a = 0, b = kBlockBytes;
    const CacheBlock a0 = pool.blockFor(a);
    const CacheBlock b0 = pool.blockFor(b);
    EXPECT_EQ(pool.blockFor(a), a0); // repeat: same bits

    pool.bumpVersion(a);
    EXPECT_NE(pool.blockFor(a), a0) << "bump must change content";
    EXPECT_EQ(pool.blockFor(b), b0) << "bump must not leak to b";
    // The old version can never be served again.
    const CacheBlock a1 = pool.blockFor(a);
    EXPECT_EQ(pool.blockFor(a), a1);
}

TEST(ContentPool, RepeatedCallsServeCurrentVersion)
{
    // Interleave reads of two addresses with stores and forced versions:
    // a repeat of the scratch slot's (address, version) may reuse it,
    // but no call may ever return content of a stale version.
    const auto &profile = WorkloadRegistry::byName("gcc");
    BlockContentPool pool(profile, 3);
    const std::array<Addr, 2> addrs = {5 * kBlockBytes, 9 * kBlockBytes};
    Rng rng(77);
    u64 calls = 0;
    for (int step = 0; step < 4000; ++step) {
        const Addr a = addrs[rng.below(2)];
        const u64 op = rng.below(8);
        if (op == 0) {
            pool.bumpVersion(a);
        } else if (op == 1) {
            pool.setVersion(a, static_cast<u32>(rng.below(4)));
        } else {
            const CacheBlock &got = pool.blockForRef(a);
            ++calls;
            ASSERT_EQ(got, pool.generateAt(a, pool.versionOf(a)))
                << "step " << step;
        }
        ASSERT_EQ(pool.blockForCalls(), calls);
    }
}

TEST(ContentPool, SharedTableBumpIsSeenByEveryPool)
{
    // Two pools on one block table (a shared footprint): a store through
    // one pool must change what the other serves for that address.
    const auto &profile = WorkloadRegistry::byName("mcf");
    BlockTable blocks;
    BlockContentPool p0(profile, 0), p1(profile, 0);
    p0.shareBlockTable(blocks);
    p1.shareBlockTable(blocks);
    const Addr a = 12 * kBlockBytes;
    const CacheBlock v0 = p0.blockForRef(a);
    p1.bumpVersion(a);
    const CacheBlock v1 = p0.blockForRef(a);
    EXPECT_EQ(v1, p0.generateAt(a, 1));
    if (p0.categoryOf(a) != BlockCategory::Zero) {
        EXPECT_NE(v1, v0);
    }
    EXPECT_EQ(p0.blockForCalls(), 2u);
}

TEST(ContentPool, CategoryDistributionTracksMix)
{
    const auto &prof = WorkloadRegistry::byName("perlbench");
    BlockContentPool pool(prof);
    unsigned text = 0, total = 20000;
    for (Addr a = 0; a < total * kBlockBytes; a += kBlockBytes)
        text += pool.categoryOf(a) == BlockCategory::Text;
    EXPECT_NEAR(static_cast<double>(text) / total,
                prof.mix.of(BlockCategory::Text), 0.02);
}

TEST(ContentPool, SampleDrawsFromMix)
{
    const auto &prof = WorkloadRegistry::byName("bwaves");
    BlockContentPool pool(prof);
    const auto blocks = pool.sample(2000, 7);
    EXPECT_EQ(blocks.size(), 2000u);
    const CombinedCompressor combined(4);
    unsigned compressible = 0;
    for (const auto &b : blocks)
        compressible += combined.compressible(b);
    // bwaves is ~85%+ compressible under the combined scheme.
    EXPECT_GT(compressible, 1500u);
}

TEST(CategoryFromUniform, MatchesMixWeights)
{
    const auto &profile = WorkloadRegistry::byName("mcf");
    BlockContentPool pool(profile, 0);

    // The CDF walk at the exact draw reproduces the configured mix.
    std::array<u64, kBlockCategories> counts{};
    Rng rng(0xCDF);
    constexpr unsigned kDraws = 200000;
    for (unsigned i = 0; i < kDraws; ++i)
        ++counts[static_cast<unsigned>(
            pool.categoryFromUniform(rng.uniform()))];

    for (unsigned c = 0; c < kBlockCategories; ++c) {
        const double expect = profile.mix.weight[c];
        const double got =
            static_cast<double>(counts[c]) / kDraws;
        EXPECT_NEAR(got, expect, 0.01)
            << "category " << c << " frequency drifted";
    }

    // categoryOf is categoryFromUniform over a hashed-address draw:
    // address-indexed frequencies converge to the same mix.
    std::array<u64, kBlockCategories> byAddr{};
    constexpr unsigned kBlocks = 100000;
    for (Addr a = 0; a < u64{kBlocks} * kBlockBytes; a += kBlockBytes)
        ++byAddr[static_cast<unsigned>(pool.categoryOf(a))];
    for (unsigned c = 0; c < kBlockCategories; ++c) {
        EXPECT_NEAR(static_cast<double>(byAddr[c]) / kBlocks,
                    profile.mix.weight[c], 0.015)
            << "category " << c;
    }
}

// ---------------------------------------------------------------------
// Trace generator.
// ---------------------------------------------------------------------

TEST(TraceGen, EpochsHaveAccessesAndInstructions)
{
    const auto &prof = WorkloadRegistry::byName("lbm");
    TraceGenerator gen(prof, 0);
    for (int i = 0; i < 100; ++i) {
        const Epoch e = gen.next();
        EXPECT_GT(e.instructions, 0u);
        EXPECT_GE(e.accesses.size(), 1u);
        EXPECT_LE(e.accesses.size(), 2u * prof.mlp);
        for (const auto &a : e.accesses) {
            EXPECT_EQ(a.addr % kBlockBytes, 0u);
            EXPECT_LT(a.addr - gen.regionBase(),
                      prof.footprintBlocks * kBlockBytes);
        }
    }
}

TEST(TraceGen, RateModeCoresGetDisjointRegions)
{
    const auto &prof = WorkloadRegistry::byName("mcf"); // SPEC: rate mode
    TraceGenerator g0(prof, 0), g1(prof, 1);
    EXPECT_NE(g0.regionBase(), g1.regionBase());
    EXPECT_EQ(g1.regionBase() - g0.regionBase(),
              prof.footprintBlocks * kBlockBytes);
}

TEST(TraceGen, SharedModeCoresOverlap)
{
    const auto &prof = WorkloadRegistry::byName("canneal"); // PARSEC
    TraceGenerator g0(prof, 0), g1(prof, 1);
    EXPECT_EQ(g0.regionBase(), g1.regionBase());
    // Shared pools must agree on content.
    EXPECT_EQ(g0.pool().blockFor(0), g1.pool().blockFor(0));
}

TEST(TraceGen, WriteFractionRoughlyHonoured)
{
    const auto &prof = WorkloadRegistry::byName("lbm");
    TraceGenerator gen(prof, 0);
    u64 writes = 0, total = 0;
    for (int i = 0; i < 2000; ++i) {
        for (const auto &a : gen.next().accesses) {
            ++total;
            writes += a.isWrite;
        }
    }
    EXPECT_NEAR(static_cast<double>(writes) / total, prof.writeFraction,
                0.03);
}

TEST(TraceGen, StreamingProfileRevisitsSequentially)
{
    const auto &prof = WorkloadRegistry::byName("lbm"); // stream .9
    TraceGenerator gen(prof, 0);
    u64 sequential = 0, total = 0;
    Addr prev = ~0ULL;
    for (int i = 0; i < 2000; ++i) {
        for (const auto &a : gen.next().accesses) {
            if (prev != ~0ULL) {
                ++total;
                sequential += (a.addr == prev + kBlockBytes);
            }
            prev = a.addr;
        }
    }
    EXPECT_GT(static_cast<double>(sequential) / total, 0.7);
}

} // namespace
} // namespace cop
