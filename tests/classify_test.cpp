/**
 * @file
 * Exactness of the fault-free store path. With fault injection off, a
 * COP-family controller stores a block as the status CopCodec::classify
 * decides and serves its fills from that status, never building or
 * decoding the image. That is exact only if, for every block:
 *
 *  - classify(x) decides what encode(x) does: status, scheme and scheme
 *    trials;
 *  - decode(encode(x)) is x with clean flags, and says "compressed"
 *    exactly for a protected block.
 *
 * Both are checked here over sampled blocks of every content category
 * of every stock profile, plus constructed aliases, under both code
 * configurations, with and without the static hash, at three decoder
 * thresholds. The System oracle does not see the codec in fault-free
 * runs, so these checks carry that coverage.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/encode_counter.hpp"
#include "mem/cop_controller.hpp"
#include "sim/system.hpp"
#include "test_print.hpp"
#include "workloads/trace_gen.hpp"

namespace cop {
namespace {

/** Blocks sampled per (profile, category) pair. */
constexpr unsigned kPerCategory = 32;

/** Every profile's categories, then images that are raw aliases. */
std::vector<CacheBlock>
sampleBlocks(const CopCodec &codec)
{
    std::vector<CacheBlock> blocks;
    Rng rng(0xC1A551F7);
    for (const WorkloadProfile &p : WorkloadRegistry::all()) {
        for (unsigned c = 0; c < kBlockCategories; ++c) {
            for (unsigned i = 0; i < kPerCategory; ++i)
                blocks.push_back(generateBlock(
                    static_cast<BlockCategory>(c), p.gen, rng));
        }
    }
    // A protected image of a random payload decodes as compressed, so
    // stored raw it would be misread: the encoder must reject it.
    for (unsigned i = 0; i < 32; ++i) {
        std::array<u8, kBlockBytes> payload{};
        for (u8 &b : payload)
            b = static_cast<u8>(rng.next());
        blocks.push_back(codec.protectPayload(payload));
    }
    return blocks;
}

std::vector<CopConfig>
allConfigs()
{
    std::vector<CopConfig> out;
    for (const CopConfig &base :
         {CopConfig::fourByte(), CopConfig::eightByte()}) {
        // The decoder threshold decides which raw blocks alias, so the
        // loosest (2), the paper's and the strictest (every word) are
        // all checked.
        for (const unsigned threshold :
             {2u, base.threshold, base.codewords()}) {
            for (const bool hash : {true, false}) {
                CopConfig cfg = base;
                cfg.threshold = threshold;
                cfg.useStaticHash = hash;
                out.push_back(cfg);
            }
        }
    }
    return out;
}

class ClassifyExactness : public ::testing::TestWithParam<CopConfig>
{
};

TEST_P(ClassifyExactness, ClassifyDecidesWhatEncodeDoes)
{
    const CopCodec codec(GetParam());
    unsigned statuses[3] = {};
    for (const CacheBlock &x : sampleBlocks(codec)) {
        const CopEncodeResult enc = codec.encode(x);
        const CopEncodeResult cls = codec.classify(x);
        ASSERT_EQ(cls.status, enc.status);
        ASSERT_EQ(cls.schemeTrials, enc.schemeTrials);
        if (enc.isProtected()) {
            ASSERT_EQ(cls.scheme, enc.scheme);
        }
        // classify builds no image.
        ASSERT_EQ(cls.stored, CacheBlock{});
        ++statuses[static_cast<unsigned>(enc.status)];
    }
    // Every status occurs, so each path above was compared.
    for (const unsigned n : statuses)
        EXPECT_GT(n, 0u);
}

TEST_P(ClassifyExactness, EveryStoredImageDecodesToItsBlock)
{
    const CopCodec codec(GetParam());
    for (const CacheBlock &x : sampleBlocks(codec)) {
        const CopEncodeResult enc = codec.encode(x);
        if (enc.status == EncodeStatus::AliasRejected)
            continue; // never stored
        const CopDecodeResult dec = codec.decode(enc.stored);
        ASSERT_EQ(dec.data, x);
        ASSERT_EQ(dec.compressed, enc.isProtected());
        ASSERT_EQ(dec.correctedWords, 0u);
        ASSERT_FALSE(dec.detectedUncorrectable);
    }
}

INSTANTIATE_TEST_SUITE_P(Configs, ClassifyExactness,
                         ::testing::ValuesIn(allConfigs()));

TEST(Classify, CountedLikeAnEncode)
{
    const CopCodec codec;
    EncodeCounter encodes;
    EncodeCounter classifies;
    for (const CacheBlock &x : sampleBlocks(codec)) {
        encodes.encode(codec, x);
        classifies.classify(codec, x);
    }
    EXPECT_EQ(classifies.calls(), encodes.calls());
    EXPECT_EQ(classifies.schemeTrials(), encodes.schemeTrials());
}

class ClassifiedStore : public ::testing::Test
{
  protected:
    ClassifiedStore() : pool(WorkloadRegistry::byName("gcc"))
    {
        DramConfig cfg;
        cfg.refreshEnabled = false;
        dram = std::make_unique<DramSystem>(cfg);
    }

    MemoryController::ContentSource
    source()
    {
        return [this](Addr a) -> const CacheBlock & {
            return pool.blockForRef(a);
        };
    }

    BlockContentPool pool;
    std::unique_ptr<DramSystem> dram;
};

TEST_F(ClassifiedStore, FillsServeStoredContentWithoutAnImage)
{
    CopController ctrl(*dram, source());
    unsigned raw = 0;
    for (Addr addr = 0; addr < 400 * kBlockBytes; addr += kBlockBytes) {
        const MemReadResult r = ctrl.read(addr, addr);
        if (r.aliasPinned)
            continue;
        EXPECT_EQ(r.data, pool.blockFor(addr));
        EXPECT_EQ(r.wasUncompressed,
                  !ctrl.codec().encode(r.data).isProtected());
        raw += r.wasUncompressed;
        EXPECT_EQ(ctrl.imageOf(addr), nullptr);

        pool.bumpVersion(addr);
        const CacheBlock next = pool.blockFor(addr);
        ctrl.writeback(addr, next, addr + 1, false);
        EXPECT_EQ(ctrl.read(addr, addr + 2).data, next);
    }
    EXPECT_GT(raw, 0u);
    // Stored blocks count although no image was kept.
    EXPECT_EQ(ctrl.imageBlockCount(), 400u);
}

TEST_F(ClassifiedStore, EnablingFaultsAfterAStoreIsFatal)
{
    // With faults off every controller stores a status, not an image,
    // so faults armed afterwards would have nothing to strike.
    for (const ControllerKind kind :
         {ControllerKind::Unprotected, ControllerKind::EccDimm,
          ControllerKind::EccRegion, ControllerKind::Cop4,
          ControllerKind::Cop8, ControllerKind::CopEr,
          ControllerKind::CopErNaive}) {
        const auto ctrl = makeController(kind, *dram, source(), 4, 1 << 20);
        ctrl->writeback(0, pool.blockFor(0), 0, false);
        EXPECT_DEATH(ctrl->enableFaultInjection(RecoveryConfig{}),
                     "fault injection must be enabled before the first "
                     "store")
            << controllerKindName(kind);
    }
}

} // namespace
} // namespace cop
