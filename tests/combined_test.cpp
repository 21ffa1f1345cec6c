/**
 * @file
 * Tests for the combined TXT+MSB+RLE scheme with its 2-bit tag
 * (paper Sections 3.2 and 4).
 */

#include <gtest/gtest.h>

#include <array>

#include "compress/combined.hpp"
#include "test_blocks.hpp"

namespace cop {
namespace {

TEST(Combined, FourByteConfigGeometry)
{
    const CombinedCompressor c(4);
    EXPECT_EQ(c.payloadBits(), 480u);
    EXPECT_EQ(c.payloadBytes(), 60u);
    EXPECT_EQ(c.streamBudget(), 478u);
    EXPECT_EQ(c.schemes().size(), 3u); // MSB, RLE, TXT
}

TEST(Combined, EightByteConfigExcludesTxt)
{
    const CombinedCompressor c(8);
    EXPECT_EQ(c.payloadBits(), 448u);
    EXPECT_EQ(c.streamBudget(), 446u);
    EXPECT_EQ(c.schemes().size(), 2u); // MSB, RLE only
    for (const auto *s : c.schemes())
        EXPECT_NE(s->id(), SchemeId::Txt);
}

TEST(Combined, RejectsBadCheckBytes)
{
    EXPECT_DEATH({ CombinedCompressor c(6); }, "4- or 8-byte");
}

class CombinedRoundTrip : public ::testing::TestWithParam<unsigned>
{
  protected:
    void
    expectRoundTrip(const CacheBlock &b, SchemeId expected)
    {
        const CombinedCompressor c(GetParam());
        std::array<u8, 60> payload{};
        const auto scheme =
            c.compress(b, std::span<u8>(payload).first(c.payloadBytes()));
        ASSERT_TRUE(scheme.has_value());
        EXPECT_EQ(*scheme, expected);
        EXPECT_EQ(c.decompress(std::span<const u8>(payload).first(
                      c.payloadBytes())),
                  b);
    }
};

TEST_P(CombinedRoundTrip, MsbBlock)
{
    Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        expectRoundTrip(
            testblocks::similarWords(rng, 0x0042000000000000ULL, 1u << 30),
            SchemeId::Msb);
    }
}

TEST_P(CombinedRoundTrip, RleBlock)
{
    Rng rng(2);
    for (int i = 0; i < 50; ++i) {
        // Sparse random data: zero runs but word MSBs differ.
        CacheBlock b = testblocks::sparse(rng, 8);
        const CombinedCompressor c(GetParam());
        std::array<u8, 60> payload{};
        const auto scheme =
            c.compress(b, std::span<u8>(payload).first(c.payloadBytes()));
        if (!scheme)
            continue;
        EXPECT_EQ(c.decompress(std::span<const u8>(payload).first(
                      c.payloadBytes())),
                  b);
    }
}

INSTANTIATE_TEST_SUITE_P(Budgets, CombinedRoundTrip,
                         ::testing::Values(4u, 8u),
                         [](const ::testing::TestParamInfo<unsigned> &i) {
                             return std::to_string(i.param) + "byte";
                         });

TEST(Combined, TxtBlockUsesTxtOnlyAt4Bytes)
{
    Rng rng(3);
    const CacheBlock b = testblocks::text(rng);

    const CombinedCompressor c4(4);
    std::array<u8, 60> payload{};
    const auto s4 = c4.compress(b, payload);
    ASSERT_TRUE(s4.has_value());
    // Text blocks may also be RLE/MSB-compressible depending on content;
    // at minimum the round trip must hold.
    EXPECT_EQ(c4.decompress(payload), b);

    const CombinedCompressor c8(8);
    std::array<u8, 56> payload8{};
    const auto s8 = c8.compress(b, payload8);
    if (s8.has_value()) {
        EXPECT_NE(*s8, SchemeId::Txt);
    }
}

TEST(Combined, IncompressibleReturnsNullopt)
{
    Rng rng(4);
    const CombinedCompressor c(4);
    int incompressible = 0;
    for (int i = 0; i < 200; ++i) {
        CacheBlock b = testblocks::random(rng);
        std::array<u8, 60> payload{};
        if (!c.compress(b, payload))
            ++incompressible;
    }
    // Random data is essentially never compressible by TXT/MSB/RLE.
    EXPECT_GT(incompressible, 190);
}

TEST(Combined, CompressibleMatchesCompress)
{
    Rng rng(5);
    const CombinedCompressor c(4);
    for (int i = 0; i < 300; ++i) {
        CacheBlock b;
        switch (i % 4) {
          case 0: b = testblocks::random(rng); break;
          case 1: b = testblocks::similarWords(rng); break;
          case 2: b = testblocks::sparse(rng, 4); break;
          case 3: b = testblocks::text(rng); break;
        }
        std::array<u8, 60> payload{};
        EXPECT_EQ(c.compressible(b), c.compress(b, payload).has_value());
    }
}

TEST(Combined, PayloadTagMatchesScheme)
{
    Rng rng(6);
    const CombinedCompressor c(4);
    const CacheBlock b = testblocks::similarWords(rng);
    std::array<u8, 60> payload{};
    const auto scheme = c.compress(b, payload);
    ASSERT_TRUE(scheme.has_value());
    BitReader reader(payload);
    EXPECT_EQ(static_cast<SchemeId>(reader.read(kSchemeTagBits)), *scheme);
}

TEST(Combined, FourByteZeroBlockCompresses)
{
    const CombinedCompressor c(4);
    const CacheBlock zero;
    std::array<u8, 60> payload{};
    ASSERT_TRUE(c.compress(zero, payload).has_value());
    EXPECT_EQ(c.decompress(payload), zero);
}

} // namespace
} // namespace cop
