/**
 * @file
 * Tests for the Hsiao SECDED and Hamming SEC code constructions: encode /
 * decode round trips, exhaustive single-error correction, double-error
 * detection, and the code-geometry properties COP's alias analysis rests
 * on (e.g. a random 128-bit word is a valid (128,120) code word with
 * probability 2^-8).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "ecc/secded.hpp"
#include "test_print.hpp"

namespace cop {
namespace {

/** Fill the data portion of a codeword buffer with random bits. */
std::vector<u8>
randomCodeword(const HsiaoCode &code, Rng &rng)
{
    std::vector<u8> cw(code.codeBytes(), 0);
    for (unsigned i = 0; i < code.dataBits(); ++i)
        setBit(cw, i, rng.next() & 1);
    code.encode(cw);
    return cw;
}

class HsiaoCodeTest : public ::testing::TestWithParam<const HsiaoCode *>
{
};

TEST_P(HsiaoCodeTest, EncodeYieldsZeroSyndrome)
{
    const HsiaoCode &code = *GetParam();
    Rng rng(1);
    for (int iter = 0; iter < 50; ++iter) {
        auto cw = randomCodeword(code, rng);
        EXPECT_EQ(code.syndrome(cw), 0u);
        EXPECT_TRUE(code.isValidCodeword(cw));
    }
}

TEST_P(HsiaoCodeTest, CorrectsEverySingleBitError)
{
    const HsiaoCode &code = *GetParam();
    Rng rng(2);
    const auto clean = randomCodeword(code, rng);
    for (unsigned bit = 0; bit < code.codeBits(); ++bit) {
        auto cw = clean;
        flipBit(cw, bit);
        const EccResult r = code.decode(cw);
        ASSERT_TRUE(r.corrected()) << "bit " << bit;
        ASSERT_EQ(r.bitIndex, static_cast<int>(bit));
        ASSERT_EQ(cw, clean);
    }
}

TEST_P(HsiaoCodeTest, DetectsDoubleBitErrors)
{
    const HsiaoCode &code = *GetParam();
    Rng rng(3);
    const auto clean = randomCodeword(code, rng);
    for (int iter = 0; iter < 500; ++iter) {
        const unsigned b1 = rng.below(code.codeBits());
        unsigned b2 = rng.below(code.codeBits());
        while (b2 == b1)
            b2 = rng.below(code.codeBits());
        auto cw = clean;
        flipBit(cw, b1);
        flipBit(cw, b2);
        const EccResult r = code.decode(cw);
        ASSERT_TRUE(r.uncorrectable())
            << "bits " << b1 << "," << b2 << " miscorrected";
        ASSERT_TRUE(r.doubleError);
    }
}

TEST_P(HsiaoCodeTest, ColumnsAreDistinctAndOdd)
{
    const HsiaoCode &code = *GetParam();
    std::vector<bool> seen(1u << code.checkBits(), false);
    for (unsigned i = 0; i < code.codeBits(); ++i) {
        const u32 col = code.column(i);
        ASSERT_NE(col, 0u);
        ASSERT_EQ(std::popcount(col) % 2, 1) << "column " << i;
        ASSERT_FALSE(seen[col]) << "duplicate column " << i;
        seen[col] = true;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodes, HsiaoCodeTest,
    ::testing::Values(&codes::dimm72(), &codes::full128(),
                      &codes::short64(), &codes::wide523(),
                      &codes::validBits512()),
    [](const ::testing::TestParamInfo<const HsiaoCode *> &info) {
        const HsiaoCode &c = *info.param;
        return "n" + std::to_string(c.codeBits()) + "k" +
               std::to_string(c.dataBits());
    });

TEST(HsiaoGeometry, ColumnOrderMatchesFullScanEnumeration)
{
    // The constructor walks odd-weight columns with Gosper's
    // next-popcount-permutation; the stored column order is on-DRAM
    // format (it fixes which data bit lands in which code word
    // position), so it must equal the original full-scan enumeration:
    // increasing weight 3, 5, ..., then increasing value within a
    // weight, then unit vectors for the check bits.
    for (const HsiaoCode *codep :
         {&codes::dimm72(), &codes::full128(), &codes::short64(),
          &codes::wide523(), &codes::validBits512()}) {
        const HsiaoCode &code = *codep;
        const unsigned r = code.checkBits();
        std::vector<u32> expect;
        for (unsigned weight = 3; weight <= r && expect.size() < code.dataBits();
             weight += 2) {
            for (u64 v = 0; v < (1ULL << r) && expect.size() < code.dataBits();
                 ++v) {
                if (static_cast<unsigned>(std::popcount(v)) == weight)
                    expect.push_back(static_cast<u32>(v));
            }
        }
        ASSERT_EQ(expect.size(), code.dataBits());
        for (unsigned i = 0; i < code.dataBits(); ++i)
            ASSERT_EQ(code.column(i), expect[i])
                << "n=" << code.codeBits() << " data column " << i;
        for (unsigned i = 0; i < r; ++i)
            ASSERT_EQ(code.column(code.dataBits() + i), 1u << i)
                << "n=" << code.codeBits() << " check column " << i;
    }
}

TEST(HammingGeometry, ColumnOrderMatchesFullScanEnumeration)
{
    // Hamming data columns: non-power-of-two nonzero r-bit values in
    // increasing order; check columns are unit vectors.
    const HammingCode &code = codes::pointer34();
    const unsigned r = code.checkBits();
    std::vector<u32> expect;
    for (u32 v = 1; v < (1u << r) && expect.size() < code.dataBits(); ++v) {
        if (std::popcount(v) != 1)
            expect.push_back(v);
    }
    ASSERT_EQ(expect.size(), code.dataBits());
    for (unsigned i = 0; i < code.dataBits(); ++i)
        ASSERT_EQ(code.column(i), expect[i]) << "data column " << i;
    for (unsigned i = 0; i < r; ++i)
        ASSERT_EQ(code.column(code.dataBits() + i), 1u << i)
            << "check column " << i;
}

TEST(HsiaoGeometry, PaperCodeShapes)
{
    EXPECT_EQ(codes::dimm72().codeBits(), 72u);
    EXPECT_EQ(codes::full128().codeBits(), 128u);
    EXPECT_EQ(codes::full128().dataBits(), 120u);
    EXPECT_EQ(codes::short64().codeBits(), 64u);
    EXPECT_EQ(codes::wide523().codeBits(), 523u);
    EXPECT_EQ(codes::wide523().checkBits(), 11u);
    EXPECT_EQ(codes::validBits512().dataBits(), 501u);
}

TEST(HsiaoGeometry, Full128UsesEveryOddColumn)
{
    // (128,120) is the full code: 56 + 56 + 8 odd-weight data columns
    // plus the 8 unit check columns exhaust all 128 odd-weight bytes.
    // Consequence (paper Section 3.1): every odd-weight syndrome is
    // correctable, and a random word is valid with probability 2^-8.
    const HsiaoCode &code = codes::full128();
    std::vector<bool> seen(256, false);
    for (unsigned i = 0; i < 128; ++i)
        seen[code.column(i)] = true;
    unsigned covered = 0;
    for (unsigned v = 1; v < 256; ++v) {
        if (std::popcount(v) % 2 == 1) {
            EXPECT_TRUE(seen[v]);
            ++covered;
        }
    }
    EXPECT_EQ(covered, 128u);
}

TEST(HsiaoStatistics, RandomWordValidWithProbability2toMinus8)
{
    // Monte-Carlo check of the 0.39% alias building block.
    const HsiaoCode &code = codes::full128();
    Rng rng(4);
    std::vector<u8> cw(code.codeBytes());
    int valid = 0;
    constexpr int kTrials = 200000;
    for (int t = 0; t < kTrials; ++t) {
        for (auto &b : cw)
            b = static_cast<u8>(rng.next());
        valid += code.isValidCodeword(cw);
    }
    const double p = static_cast<double>(valid) / kTrials;
    EXPECT_NEAR(p, 1.0 / 256, 0.0012);
}

TEST(HsiaoError, RejectsImpossibleCode)
{
    EXPECT_DEATH({ HsiaoCode bad(200, 8); }, "impossible");
}

TEST(Hamming, PointerCodeShape)
{
    const HammingCode &code = codes::pointer34();
    EXPECT_EQ(code.dataBits(), 28u);
    EXPECT_EQ(code.checkBits(), 6u);
    EXPECT_EQ(code.codeBits(), 34u);
}

TEST(Hamming, RoundTripAndSingleErrorCorrection)
{
    const HammingCode &code = codes::pointer34();
    Rng rng(5);
    for (int iter = 0; iter < 50; ++iter) {
        std::vector<u8> cw(code.codeBytes(), 0);
        for (unsigned i = 0; i < code.dataBits(); ++i)
            setBit(cw, i, rng.next() & 1);
        code.encode(cw);
        ASSERT_EQ(code.syndrome(cw), 0u);

        const auto clean = cw;
        for (unsigned bit = 0; bit < code.codeBits(); ++bit) {
            auto damaged = clean;
            flipBit(damaged, bit);
            const EccResult r = code.decode(damaged);
            ASSERT_TRUE(r.corrected());
            ASSERT_EQ(damaged, clean);
        }
    }
}

TEST(Hamming, SecOnlyNoDoubleGuarantee)
{
    // A Hamming SEC code may miscorrect double errors — we only require
    // that it never crashes and returns *some* classification.
    const HammingCode &code = codes::pointer34();
    Rng rng(6);
    std::vector<u8> cw(code.codeBytes(), 0);
    setBits(cw, 0, 28, 0x0ABCDEF);
    code.encode(cw);
    for (int iter = 0; iter < 200; ++iter) {
        auto damaged = cw;
        const unsigned b1 = rng.below(code.codeBits());
        unsigned b2 = rng.below(code.codeBits());
        while (b2 == b1)
            b2 = rng.below(code.codeBits());
        flipBit(damaged, b1);
        flipBit(damaged, b2);
        const EccResult r = code.decode(damaged);
        EXPECT_NE(r.status, EccStatus::Ok);
    }
}

TEST(EccResult, StatusPredicates)
{
    EccResult r;
    r.status = EccStatus::Ok;
    EXPECT_TRUE(r.ok());
    r.status = EccStatus::Corrected;
    EXPECT_TRUE(r.corrected());
    r.status = EccStatus::Uncorrectable;
    EXPECT_TRUE(r.uncorrectable());
}

} // namespace
} // namespace cop
