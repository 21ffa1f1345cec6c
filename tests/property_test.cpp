/**
 * @file
 * Cross-cutting property tests (parameterised fuzzing):
 *
 *  - every compressor is lossless whenever it claims success, at every
 *    budget, over every block-category population;
 *  - compressed streams never exceed their budget;
 *  - the COP codec round-trips every storable block, and its decoder's
 *    compressed/uncompressed determination always matches what the
 *    encoder did;
 *  - no 1- or 2-bit flip in a protected image is ever silently wrong
 *    in the 8-byte configuration;
 *  - SECDED codes never report a zero syndrome for 1 or 2 flips.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "compress/bdi.hpp"
#include "compress/combined.hpp"
#include "compress/fpc.hpp"
#include "core/codec.hpp"
#include "test_print.hpp"
#include "workloads/block_gen.hpp"

namespace cop {
namespace {

std::unique_ptr<BlockCompressor>
makeScheme(SchemeId id)
{
    switch (id) {
      case SchemeId::Msb: return std::make_unique<MsbCompressor>(5, true);
      case SchemeId::Rle: return std::make_unique<RleCompressor>();
      case SchemeId::Txt: return std::make_unique<TxtCompressor>();
      case SchemeId::Fpc: return std::make_unique<FpcCompressor>();
      case SchemeId::Bdi: return std::make_unique<BdiCompressor>();
    }
    COP_PANIC("bad scheme");
}

using LosslessParam = std::tuple<SchemeId, unsigned /*budget*/>;

std::string
losslessParamName(const ::testing::TestParamInfo<LosslessParam> &info)
{
    static const char *names[] = {"MSB", "RLE", "TXT", "FPC", "BDI"};
    return std::string(
               names[static_cast<unsigned>(std::get<0>(info.param))]) +
           "b" + std::to_string(std::get<1>(info.param));
}

class LosslessProperty : public ::testing::TestWithParam<LosslessParam>
{
};

TEST_P(LosslessProperty, CompressImpliesExactRoundTrip)
{
    const auto [id, budget] = GetParam();
    const auto scheme = makeScheme(id);
    Rng rng(static_cast<u64>(id) * 1000 + budget);
    BlockGenParams params;

    unsigned successes = 0;
    for (int iter = 0; iter < 2000; ++iter) {
        const auto category =
            static_cast<BlockCategory>(iter % kBlockCategories);
        const CacheBlock block = generateBlock(category, params, rng);

        std::array<u8, kBlockBytes + 8> buf{};
        BitWriter writer(buf);
        const bool claims = scheme->canCompress(block, budget);
        const bool did = scheme->compress(block, budget, writer);
        ASSERT_EQ(claims, did) << scheme->name() << " iter " << iter;
        if (!did)
            continue;
        ++successes;
        ASSERT_LE(writer.bitPos(), budget);

        BitReader reader(buf);
        CacheBlock out;
        scheme->decompress(reader, budget, out);
        ASSERT_EQ(out, block)
            << scheme->name() << " corrupted a "
            << blockCategoryName(category) << " block";
    }
    // The population includes zero blocks, so at the standard 4-byte
    // budget and above every scheme succeeds at least sometimes. (At
    // 446 bits TXT's fixed 448 and MSB5's fixed 477 cannot fit — the
    // reason the 8-byte configuration swaps in MSB10 and drops TXT.)
    if (budget >= 478) {
        EXPECT_GT(successes, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndBudgets, LosslessProperty,
    ::testing::Combine(::testing::Values(SchemeId::Msb, SchemeId::Rle,
                                         SchemeId::Txt, SchemeId::Fpc,
                                         SchemeId::Bdi),
                       ::testing::Values(446u, 478u, 500u)),
    losslessParamName);

class CodecProperty : public ::testing::TestWithParam<CopConfig>
{
};

TEST_P(CodecProperty, EncodeDecodeClosesOverAllCategories)
{
    const CopCodec codec(GetParam());
    Rng rng(GetParam().checkBytes);
    BlockGenParams params;
    for (int iter = 0; iter < 2000; ++iter) {
        const auto category =
            static_cast<BlockCategory>(iter % kBlockCategories);
        const CacheBlock block = generateBlock(category, params, rng);
        const CopEncodeResult enc = codec.encode(block);
        if (enc.status == EncodeStatus::AliasRejected)
            continue; // never stored; nothing to decode
        const CopDecodeResult dec = codec.decode(enc.stored);
        ASSERT_EQ(dec.compressed, enc.isProtected())
            << "decoder disagreed with encoder, iter " << iter;
        ASSERT_EQ(dec.data, block) << "iter " << iter;
        ASSERT_EQ(dec.validCodewords,
                  enc.isProtected() ? codec.config().codewords()
                                    : dec.validCodewords);
        if (!enc.isProtected()) {
            ASSERT_LT(dec.validCodewords, codec.config().threshold);
        }
    }
}

TEST_P(CodecProperty, TwoFlipsNeverSilentIn8ByteConfig)
{
    if (GetParam().checkBytes != 8)
        GTEST_SKIP() << "8-byte-config property";
    const CopCodec codec(GetParam());
    Rng rng(99);
    BlockGenParams params;
    const CacheBlock block =
        generateBlock(BlockCategory::FpSimilar, params, rng);
    const CopEncodeResult enc = codec.encode(block);
    ASSERT_TRUE(enc.isProtected());
    for (int iter = 0; iter < 3000; ++iter) {
        CacheBlock stored = enc.stored;
        const unsigned b1 = rng.below(kBlockBits);
        unsigned b2 = rng.below(kBlockBits);
        while (b2 == b1)
            b2 = rng.below(kBlockBits);
        stored.flipBit(b1);
        stored.flipBit(b2);
        const CopDecodeResult dec = codec.decode(stored);
        // Either fully corrected, or flagged — never silently wrong.
        if (dec.data == block)
            continue;
        ASSERT_TRUE(dec.detectedUncorrectable)
            << "silent corruption with flips " << b1 << "," << b2;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CodecProperty,
    ::testing::Values(CopConfig::fourByte(), CopConfig::eightByte()),
    [](const ::testing::TestParamInfo<CopConfig> &info) {
        return std::to_string(info.param.checkBytes) + "byte";
    });

class SyndromeProperty
    : public ::testing::TestWithParam<const HsiaoCode *>
{
};

TEST_P(SyndromeProperty, OneOrTwoFlipsNeverZeroSyndrome)
{
    const HsiaoCode &code = *GetParam();
    Rng rng(5);
    std::vector<u8> cw(code.codeBytes(), 0);
    for (unsigned i = 0; i < code.dataBits(); ++i)
        setBit(cw, i, rng.next() & 1);
    code.encode(cw);

    for (int iter = 0; iter < 2000; ++iter) {
        auto damaged = cw;
        const unsigned flips = 1 + (iter % 2);
        unsigned b1 = rng.below(code.codeBits());
        flipBit(damaged, b1);
        if (flips == 2) {
            unsigned b2 = rng.below(code.codeBits());
            while (b2 == b1)
                b2 = rng.below(code.codeBits());
            flipBit(damaged, b2);
        }
        ASSERT_NE(code.syndrome(damaged), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodes, SyndromeProperty,
    ::testing::Values(&codes::dimm72(), &codes::full128(),
                      &codes::short64(), &codes::wide523(),
                      &codes::validBits512()),
    [](const ::testing::TestParamInfo<const HsiaoCode *> &info) {
        std::string name = "n";
        name += std::to_string(info.param->codeBits());
        return name;
    });

TEST(CombinedProperty, PayloadBitsBeyondStreamAreZero)
{
    // Padding determinism: everything after the compressed stream must
    // be zero, or re-encoding would not be reproducible.
    const CombinedCompressor c(4);
    Rng rng(6);
    BlockGenParams params;
    for (int iter = 0; iter < 500; ++iter) {
        const CacheBlock block = generateBlock(
            static_cast<BlockCategory>(iter % kBlockCategories), params,
            rng);
        std::array<u8, 60> a{}, b{};
        const auto sa = c.compress(block, a);
        if (!sa)
            continue;
        const auto sb = c.compress(block, b);
        ASSERT_EQ(sa, sb);
        ASSERT_EQ(a, b);
    }
}

} // namespace
} // namespace cop
