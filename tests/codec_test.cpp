/**
 * @file
 * Tests for the COP codec (paper Section 3.1, Figure 2): protected
 * round trips, raw pass-through, single-bit correction anywhere in a
 * protected block, threshold semantics, and double-error behaviour in
 * both the 4-byte and 8-byte configurations.
 */

#include <gtest/gtest.h>

#include "core/codec.hpp"
#include "test_blocks.hpp"
#include "test_print.hpp"

namespace cop {
namespace {

class CodecTest : public ::testing::TestWithParam<CopConfig>
{
  protected:
    CodecTest() : codec(GetParam()) {}
    CopCodec codec;
};

TEST_P(CodecTest, ProtectedRoundTripNoErrors)
{
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
        const CacheBlock data = testblocks::similarWords(rng);
        const auto enc = codec.encode(data);
        ASSERT_EQ(enc.status, EncodeStatus::Protected);
        const auto dec = codec.decode(enc.stored);
        EXPECT_TRUE(dec.compressed);
        EXPECT_EQ(dec.validCodewords, codec.config().codewords());
        EXPECT_EQ(dec.correctedWords, 0u);
        EXPECT_FALSE(dec.detectedUncorrectable);
        EXPECT_EQ(dec.data, data);
    }
}

TEST_P(CodecTest, RawPassThrough)
{
    Rng rng(2);
    for (int i = 0; i < 100; ++i) {
        const CacheBlock data = testblocks::random(rng);
        const auto enc = codec.encode(data);
        if (enc.status != EncodeStatus::Unprotected)
            continue; // compressible or (vanishingly rare) alias
        EXPECT_EQ(enc.stored, data);
        const auto dec = codec.decode(enc.stored);
        EXPECT_FALSE(dec.compressed);
        EXPECT_EQ(dec.data, data);
    }
}

TEST_P(CodecTest, SingleBitErrorAnywhereIsCorrected)
{
    Rng rng(3);
    const CacheBlock data = testblocks::similarWords(rng);
    const auto enc = codec.encode(data);
    ASSERT_EQ(enc.status, EncodeStatus::Protected);
    for (unsigned bit = 0; bit < kBlockBits; ++bit) {
        CacheBlock stored = enc.stored;
        stored.flipBit(bit);
        const auto dec = codec.decode(stored);
        ASSERT_TRUE(dec.compressed) << "bit " << bit;
        ASSERT_EQ(dec.correctedWords, 1u) << "bit " << bit;
        ASSERT_FALSE(dec.detectedUncorrectable);
        ASSERT_EQ(dec.data, data) << "bit " << bit;
    }
}

TEST_P(CodecTest, DoubleErrorSameWordDetected)
{
    Rng rng(4);
    const CacheBlock data = testblocks::similarWords(rng);
    const auto enc = codec.encode(data);
    ASSERT_EQ(enc.status, EncodeStatus::Protected);

    const unsigned seg_bits = codec.config().segmentBytes() * 8;
    for (int iter = 0; iter < 200; ++iter) {
        const unsigned seg = rng.below(codec.config().codewords());
        const unsigned b1 = rng.below(seg_bits);
        unsigned b2 = rng.below(seg_bits);
        while (b2 == b1)
            b2 = rng.below(seg_bits);
        CacheBlock stored = enc.stored;
        stored.flipBit(seg * seg_bits + b1);
        stored.flipBit(seg * seg_bits + b2);
        const auto dec = codec.decode(stored);
        // Other code words stay valid, so the block is still recognised
        // as compressed; the damaged word is detected as uncorrectable.
        ASSERT_TRUE(dec.compressed);
        ASSERT_TRUE(dec.detectedUncorrectable);
    }
}

TEST_P(CodecTest, EncodeDeterministic)
{
    Rng rng(5);
    const CacheBlock data = testblocks::similarWords(rng);
    const auto a = codec.encode(data);
    const auto b = codec.encode(data);
    EXPECT_EQ(a.stored, b.stored);
    EXPECT_EQ(a.status, b.status);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CodecTest,
    ::testing::Values(CopConfig::fourByte(), CopConfig::eightByte()),
    [](const ::testing::TestParamInfo<CopConfig> &info) {
        return std::to_string(info.param.checkBytes) + "byte";
    });

TEST(Codec4Byte, TwoErrorsInDifferentWordsEscapeDetection)
{
    // The failure mode the paper documents for the 4-byte configuration:
    // two errors in *different* code words leave only 2 valid words, so
    // the decoder treats the block as uncompressed — silent corruption.
    const CopCodec codec(CopConfig::fourByte());
    Rng rng(6);
    const CacheBlock data = testblocks::similarWords(rng);
    const auto enc = codec.encode(data);
    ASSERT_EQ(enc.status, EncodeStatus::Protected);

    CacheBlock stored = enc.stored;
    stored.flipBit(5);          // code word 0
    stored.flipBit(128 + 9);    // code word 1
    const auto dec = codec.decode(stored);
    EXPECT_FALSE(dec.compressed);
    EXPECT_EQ(dec.validCodewords, 2u);
    EXPECT_NE(dec.data, data); // silently corrupted, as the paper states
}

TEST(Codec8Byte, CorrectsErrorsInThreeDifferentWords)
{
    // The 8-byte configuration's advantage (Section 3.1): with a 5-of-8
    // threshold, single-bit errors in up to three different code words
    // are all correctable.
    const CopCodec codec(CopConfig::eightByte());
    Rng rng(7);
    const CacheBlock data = testblocks::similarWords(rng);
    const auto enc = codec.encode(data);
    ASSERT_EQ(enc.status, EncodeStatus::Protected);

    CacheBlock stored = enc.stored;
    stored.flipBit(64 * 0 + 3);
    stored.flipBit(64 * 3 + 40);
    stored.flipBit(64 * 7 + 63);
    const auto dec = codec.decode(stored);
    ASSERT_TRUE(dec.compressed);
    EXPECT_EQ(dec.validCodewords, 5u);
    EXPECT_EQ(dec.correctedWords, 3u);
    EXPECT_EQ(dec.data, data);
}

TEST(Codec, ThresholdTwoAcceptsDoubleWordDamage)
{
    // Lowering the threshold to 2 (the paper's discussed trade-off)
    // recovers the two-errors-in-different-words case...
    CopConfig cfg = CopConfig::fourByte();
    cfg.threshold = 2;
    const CopCodec codec(cfg);
    Rng rng(8);
    const CacheBlock data = testblocks::similarWords(rng);
    const auto enc = codec.encode(data);
    CacheBlock stored = enc.stored;
    stored.flipBit(5);
    stored.flipBit(128 + 9);
    const auto dec = codec.decode(stored);
    EXPECT_TRUE(dec.compressed);
    EXPECT_EQ(dec.correctedWords, 2u);
    EXPECT_EQ(dec.data, data);
}

TEST(Codec, StaticHashBreaksRepeatedValidCodewords)
{
    // Craft a block whose four 128-bit segments are identical valid
    // (128,120) code words. Without the hash the decoder would see 4
    // valid words in *raw* data (an alias); with the hash it does not.
    std::array<u8, 16> segment{};
    Rng rng(9);
    for (unsigned i = 0; i < 15; ++i)
        segment[i] = static_cast<u8>(rng.next());
    codes::full128().encode(segment);

    CacheBlock repeated;
    for (unsigned s = 0; s < 4; ++s)
        std::memcpy(repeated.data() + 16 * s, segment.data(), 16);

    CopConfig hashed = CopConfig::fourByte();
    CopConfig unhashed = CopConfig::fourByte();
    unhashed.useStaticHash = false;

    EXPECT_TRUE(CopCodec(unhashed).isAlias(repeated));
    EXPECT_FALSE(CopCodec(hashed).isAlias(repeated));
}

TEST(Codec, ProtectPayloadExtractPayloadInverse)
{
    const CopCodec codec(CopConfig::fourByte());
    Rng rng(10);
    std::array<u8, 60> payload{};
    for (auto &b : payload)
        b = static_cast<u8>(rng.next());
    const CacheBlock stored = codec.protectPayload(payload);

    CacheBlock unhashed = stored;
    unhashed ^= staticHashBlock();
    std::array<u8, 60> extracted{};
    codec.extractPayload(unhashed, extracted);
    EXPECT_EQ(payload, extracted);
    EXPECT_EQ(codec.countValidCodewords(stored), 4u);
}

TEST(Codec, ConfigValidation)
{
    CopConfig bad = CopConfig::fourByte();
    bad.threshold = 1;
    EXPECT_DEATH({ CopCodec c(bad); }, "threshold");
}

} // namespace
} // namespace cop
