/**
 * @file
 * Tests for the analytic error model and the Monte-Carlo fault
 * injector, including cross-validation between the two and the
 * paper's headline reliability relationships.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numeric>
#include <vector>

#include "reliability/error_model.hpp"
#include "reliability/fault_injector.hpp"
#include "reliability/pattern_model.hpp"
#include "test_blocks.hpp"

namespace cop {
namespace {

TEST(ErrorModel, BitFlipProbabilityScale)
{
    const ReliabilityParams params;
    // 5000 FIT/Mbit ~= 1.325e-15 per bit per second; one second of
    // exposure is 3.2e9 cycles.
    const double p = params.bitFlipProbability(3.2e9);
    EXPECT_NEAR(p, 5000.0 / (1 << 20) * 1e-9 / 3600.0, 1e-18);
}

TEST(ErrorModel, UnprotectedScalesLinearly)
{
    const ErrorRateModel model;
    const double a = model.outcome(VulnClass::Unprotected, 1e9).silent;
    const double b = model.outcome(VulnClass::Unprotected, 2e9).silent;
    EXPECT_NEAR(b / a, 2.0, 1e-9);
}

TEST(ErrorModel, ProtectedClassesAreQuadratic)
{
    const ErrorRateModel model;
    const double a =
        model.outcome(VulnClass::CopProtected4, 1e9).uncorrected();
    const double b =
        model.outcome(VulnClass::CopProtected4, 2e9).uncorrected();
    EXPECT_NEAR(b / a, 4.0, 1e-9);
}

TEST(ErrorModel, ProtectionOrdering)
{
    // For equal exposure: unprotected >> any protected scheme, and the
    // wide-code classes are weaker than ECC DIMM or COP-8B.
    const ErrorRateModel model;
    const double cycles = 1e12;
    const double unprot =
        model.outcome(VulnClass::Unprotected, cycles).uncorrected();
    const double cop4 =
        model.outcome(VulnClass::CopProtected4, cycles).uncorrected();
    const double cop8 =
        model.outcome(VulnClass::CopProtected8, cycles).uncorrected();
    const double dimm =
        model.outcome(VulnClass::EccDimm, cycles).uncorrected();
    const double wide =
        model.outcome(VulnClass::WideCode, cycles).uncorrected();
    EXPECT_GT(unprot, wide * 100);
    EXPECT_GT(wide, dimm);
    EXPECT_GT(cop4, cop8);
    EXPECT_GT(dimm, cop8); // 64-bit words beat 72-bit words
}

TEST(ErrorModel, CopErVsEccDimmAboutSixX)
{
    // Section 4: "COP-ER's error rate is 6x that of an ECC DIMM".
    // The word-width argument gives 523^2 / (8 * 72^2) ~= 6.6.
    const ErrorRateModel model;
    const double ratio = model.copErVsEccDimmRatio(1e12);
    EXPECT_GT(ratio, 5.0);
    EXPECT_LT(ratio, 8.0);
}

TEST(ErrorModel, EvaluateAggregatesLog)
{
    const ErrorRateModel model;
    VulnLog log;
    for (int i = 0; i < 1000; ++i)
        log.record(VulnClass::CopProtected4, 1000000);
    for (int i = 0; i < 60; ++i)
        log.record(VulnClass::Unprotected, 1000000);

    const ErrorRateReport report = model.evaluate(log);
    EXPECT_GT(report.baselineUnprotected, 0.0);
    // ~94% of reads protected => ~94% reduction (double-error terms are
    // negligible at these exposures).
    EXPECT_NEAR(report.reduction(), 1000.0 / 1060.0, 1e-3);
}

TEST(ErrorModel, AllProtectedIsNearlyPerfect)
{
    const ErrorRateModel model;
    VulnLog log;
    for (int i = 0; i < 1000; ++i)
        log.record(VulnClass::CopErUncompressed, 1e9);
    const ErrorRateReport report = model.evaluate(log);
    EXPECT_GT(report.reduction(), 0.999999);
}

TEST(ErrorModel, ScrubbingReducesProtectedUncorrected)
{
    ReliabilityParams scrubbed;
    scrubbed.scrubIntervalCycles = 1e9;
    const ErrorRateModel with(scrubbed);
    const ErrorRateModel without;

    const double long_residency = 1e12; // 1000 scrub intervals
    const double u_with =
        with.outcome(VulnClass::CopProtected4, long_residency)
            .uncorrected();
    const double u_without =
        without.outcome(VulnClass::CopProtected4, long_residency)
            .uncorrected();
    // T/S windows of S^2 risk vs one window of T^2 risk: factor ~ S/T.
    EXPECT_NEAR(u_without / u_with, 1000.0, 1.0);
}

TEST(ErrorModel, ScrubbingDoesNotHelpUnprotectedData)
{
    ReliabilityParams scrubbed;
    scrubbed.scrubIntervalCycles = 1e6;
    const ErrorRateModel with(scrubbed);
    const ErrorRateModel without;
    const double t = 1e12;
    EXPECT_DOUBLE_EQ(
        with.outcome(VulnClass::Unprotected, t).silent,
        without.outcome(VulnClass::Unprotected, t).silent);
}

TEST(ErrorModel, ScrubbingNoEffectOnShortResidency)
{
    ReliabilityParams scrubbed;
    scrubbed.scrubIntervalCycles = 1e9;
    const ErrorRateModel with(scrubbed);
    const ErrorRateModel without;
    const double t = 1e8; // below the interval
    EXPECT_DOUBLE_EQ(
        with.outcome(VulnClass::CopProtected4, t).uncorrected(),
        without.outcome(VulnClass::CopProtected4, t).uncorrected());
}

// ---------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------

TEST(FaultInjector, CopSingleBitAlwaysCorrected)
{
    const CopCodec codec(CopConfig::fourByte());
    FaultInjector inj(1);
    Rng rng(2);
    const CacheBlock data = testblocks::similarWords(rng);
    const InjectionOutcome out = inj.injectCop(codec, data, 1, 2000);
    EXPECT_EQ(out.corrected, out.trials);
    EXPECT_EQ(out.silent + out.detected, 0u);
}

TEST(FaultInjector, CopDoubleBitSplitsDetectedAndSilent)
{
    // Two flips: same code word (p=~1/4) -> detected; different words
    // -> silent (the paper's documented 4-byte weakness).
    const CopCodec codec(CopConfig::fourByte());
    FaultInjector inj(3);
    Rng rng(4);
    const CacheBlock data = testblocks::similarWords(rng);
    const InjectionOutcome out = inj.injectCop(codec, data, 2, 4000);
    EXPECT_EQ(out.corrected, 0u);
    const double detected_frac =
        static_cast<double>(out.detected) / out.trials;
    EXPECT_NEAR(detected_frac, 127.0 / 511.0, 0.03);
    // Both flips landing in one word's *check bits* damage nothing
    // (benign); that happens for ~0.09% of pairs. Everything else is
    // lost one way or the other.
    EXPECT_GE(out.silent + out.detected, out.trials * 99 / 100);
    EXPECT_EQ(out.silent + out.detected + out.benign, out.trials);
}

TEST(FaultInjector, Cop8DoubleBitMostlyCorrected)
{
    const CopCodec codec(CopConfig::eightByte());
    FaultInjector inj(5);
    Rng rng(6);
    const CacheBlock data = testblocks::similarWords(rng);
    const InjectionOutcome out = inj.injectCop(codec, data, 2, 4000);
    // Different words (prob 448/511) -> corrected.
    const double corrected_frac =
        static_cast<double>(out.corrected) / out.trials;
    EXPECT_NEAR(corrected_frac, 448.0 / 511.0, 0.03);
    EXPECT_EQ(out.silent, 0u);
}

TEST(FaultInjector, CopIncompressibleSingleBitIsSilent)
{
    // Raw (unprotected) blocks under plain COP: any flip is SDC.
    const CopCodec codec(CopConfig::fourByte());
    FaultInjector inj(7);
    Rng rng(8);
    CacheBlock data = testblocks::random(rng);
    while (codec.encode(data).status != EncodeStatus::Unprotected)
        data = testblocks::random(rng);
    const InjectionOutcome out = inj.injectCop(codec, data, 1, 1000);
    EXPECT_EQ(out.silent, out.trials);
}

TEST(FaultInjector, CopErSingleBitAlwaysRecovered)
{
    const CopCodec codec(CopConfig::fourByte());
    const CoperCodec coper(codec);
    FaultInjector inj(9);
    Rng rng(10);
    CacheBlock data = testblocks::random(rng);
    while (codec.encode(data).status != EncodeStatus::Unprotected)
        data = testblocks::random(rng);
    const InjectionOutcome out = inj.injectCopEr(coper, data, 1, 2000);
    EXPECT_EQ(out.silent, 0u);
    EXPECT_EQ(out.detected, 0u);
    EXPECT_EQ(out.corrected, out.trials);
}

TEST(FaultInjector, CopErDoubleBitDetectedNotSilent)
{
    const CopCodec codec(CopConfig::fourByte());
    const CoperCodec coper(codec);
    FaultInjector inj(11);
    Rng rng(12);
    CacheBlock data = testblocks::random(rng);
    while (codec.encode(data).status != EncodeStatus::Unprotected)
        data = testblocks::random(rng);
    const InjectionOutcome out = inj.injectCopEr(coper, data, 2, 2000);
    // The wide code detects double errors; silent corruption requires
    // >= 3 valid code words to appear by chance (~never).
    EXPECT_EQ(out.silent, 0u);
    EXPECT_GT(out.detected, 0u);
}

TEST(FaultInjector, EccDimmSingleCorrectedDoubleDetected)
{
    FaultInjector inj(13);
    Rng rng(14);
    const CacheBlock data = testblocks::random(rng);
    const InjectionOutcome one = inj.injectEccDimm(data, 1, 2000);
    EXPECT_EQ(one.corrected, one.trials);
    const InjectionOutcome two = inj.injectEccDimm(data, 2, 4000);
    EXPECT_EQ(two.silent, 0u);
    // Same word (prob ~71/575) -> detected; else both corrected.
    const double detected_frac =
        static_cast<double>(two.detected) / two.trials;
    EXPECT_NEAR(detected_frac, 71.0 / 575.0, 0.03);
}

TEST(FaultInjector, UnprotectedAnyFlipIsSilent)
{
    FaultInjector inj(15);
    Rng rng(16);
    const CacheBlock data = testblocks::random(rng);
    EXPECT_EQ(inj.injectUnprotected(data, 1, 100).silent, 100u);
    EXPECT_EQ(inj.injectUnprotected(data, 0, 100).benign, 100u);
}

TEST(FaultInjector, PatternZeroFlipsIsBenign)
{
    const CopCodec codec(CopConfig::fourByte());
    FaultInjector inj(17);
    Rng rng(18);
    const CacheBlock data = testblocks::similarWords(rng);
    const auto none = [](Rng &, std::vector<unsigned> &out) {
        out.clear();
    };
    const InjectionOutcome out =
        inj.injectCopPattern(codec, data, none, 100);
    EXPECT_EQ(out.benign, out.trials);
}

TEST(FaultInjector, PatternDuplicatePositionsCancel)
{
    // A generator may emit the same position twice; the two XORs
    // cancel and the stored image is untouched.
    const CopCodec codec(CopConfig::fourByte());
    FaultInjector inj(19);
    Rng rng(20);
    const CacheBlock data = testblocks::similarWords(rng);
    const auto dup = [](Rng &, std::vector<unsigned> &out) {
        out.assign({37, 37});
    };
    const InjectionOutcome out =
        inj.injectCopPattern(codec, data, dup, 100);
    EXPECT_EQ(out.benign, out.trials);
}

TEST(FaultInjector, PatternFlipPastImageDies)
{
    const CopCodec codec(CopConfig::fourByte());
    FaultInjector inj(21);
    Rng rng(22);
    const CacheBlock data = testblocks::similarWords(rng);
    const auto oob = [](Rng &, std::vector<unsigned> &out) {
        out.assign({kBlockBits});
    };
    EXPECT_DEATH(inj.injectCopPattern(codec, data, oob, 1),
                 "outside the 512-bit stored image");
    EXPECT_DEATH(inj.injectEccDimmPattern(data, oob, 1),
                 "outside the 512-bit stored image");
}

TEST(FaultInjector, UniformDrawPastStoredBitsDies)
{
    // More distinct flips than stored bits cannot be drawn; the draw
    // must fail loudly rather than loop forever.
    const CopCodec codec(CopConfig::fourByte());
    FaultInjector inj(23);
    Rng rng(24);
    const CacheBlock data = testblocks::similarWords(rng);
    EXPECT_DEATH(inj.injectCop(codec, data, kBlockBits + 1, 1),
                 "flips <= bits");
    EXPECT_DEATH(inj.injectEccDimm(data, 577, 1), "flips <= bits");
}

TEST(ErrorModel, ConditionalOutcomeMatchesGeometry)
{
    using M = ErrorRateModel;
    // Zero flips: nothing happened.
    EXPECT_DOUBLE_EQ(
        M::conditionalOutcome(VulnClass::CopProtected4, 0).benign, 1.0);
    // Unprotected data: every flip count is silent.
    EXPECT_DOUBLE_EQ(
        M::conditionalOutcome(VulnClass::Unprotected, 1).silent, 1.0);
    EXPECT_DOUBLE_EQ(
        M::conditionalOutcome(VulnClass::Unprotected, 2).silent, 1.0);
    // Singles are corrected by every protected class.
    EXPECT_DOUBLE_EQ(
        M::conditionalOutcome(VulnClass::EccDimm, 1).corrected, 1.0);
    EXPECT_DOUBLE_EQ(
        M::conditionalOutcome(VulnClass::CopProtected4, 1).corrected,
        1.0);
    // Doubles split by word geometry: the census's pair counts over
    // C(N, 2) reproduce the same-word fractions.
    const ConditionalOutcome cop4 =
        M::conditionalOutcome(VulnClass::CopProtected4, 2);
    EXPECT_NEAR(cop4.detected, 127.0 / 511.0, 1e-12);
    EXPECT_NEAR(cop4.silent, 1.0 - 127.0 / 511.0, 1e-12);
    const ConditionalOutcome dimm =
        M::conditionalOutcome(VulnClass::EccDimm, 2);
    EXPECT_NEAR(dimm.detected, 71.0 / 575.0, 1e-12);
    EXPECT_NEAR(dimm.corrected, 1.0 - 71.0 / 575.0, 1e-12);
    const ConditionalOutcome cop8 =
        M::conditionalOutcome(VulnClass::CopProtected8, 2);
    EXPECT_NEAR(cop8.detected, 63.0 / 511.0, 1e-12);
    // One wide word: every double is detected.
    EXPECT_DOUBLE_EQ(
        M::conditionalOutcome(VulnClass::WideCode, 2).detected, 1.0);
    // Three flips come from the exact census as well: a proper
    // distribution, the same on every call, and a triple in one 72-bit
    // DIMM word can never be silently corrected away.
    const ConditionalOutcome dimm3 =
        M::conditionalOutcome(VulnClass::EccDimm, 3);
    EXPECT_NEAR(dimm3.benign + dimm3.corrected + dimm3.detected +
                    dimm3.silent,
                1.0, 1e-12);
    EXPECT_GT(dimm3.detected, 0.0);
    EXPECT_DOUBLE_EQ(dimm3.detected,
                     M::conditionalOutcome(VulnClass::EccDimm, 3).detected);
    // A wide-code triple always has a nonzero (odd-weight) syndrome:
    // never benign, and the miscorrection path makes some fraction
    // silent rather than detected.
    const ConditionalOutcome wide3 =
        M::conditionalOutcome(VulnClass::WideCode, 3);
    EXPECT_DOUBLE_EQ(wide3.benign, 0.0);
    EXPECT_GT(wide3.detected, 0.0);
    EXPECT_GT(wide3.silent, 0.0);
}

/** Every triple of @p bits under @p cls, classified, by OutcomeKind. */
std::array<u64, 4>
classifyEveryTriple(VulnClass cls, const std::vector<unsigned> &bits)
{
    std::array<u64, 4> tally{};
    std::vector<unsigned> pattern;
    for (size_t a = 0; a < bits.size(); ++a)
        for (size_t b = a + 1; b < bits.size(); ++b)
            for (size_t c = b + 1; c < bits.size(); ++c) {
                pattern = {bits[a], bits[b], bits[c]};
                ++tally[static_cast<unsigned>(
                    ErrorRateModel::classifyPattern(cls, pattern))];
            }
    return tally;
}

TEST(ErrorModel, ThreeFlipOutcomeCountsEveryTriple)
{
    using M = ErrorRateModel;
    // conditionalOutcome(cls, 3) is count / C(N, 3): recover the counts
    // and pin them (benign is 0 everywhere: at distance 4, no word hit
    // by 1-3 flips has a zero syndrome). For ECC DIMM and COP-8B,
    // classify every triple of stored bits and require the same counts.
    struct Pin
    {
        VulnClass cls;
        u64 corrected, detected, silent;
        bool bruteForce;
    };
    const Pin pins[] = {
        {VulnClass::EccDimm, 20901888, 10509600, 273312, true},
        {VulnClass::CopProtected4, 0, 0, 22238720, false},
        {VulnClass::CopProtected8, 14680064, 7386624, 172032, true},
        {VulnClass::WideCode, 0, 10798117, 12907904, false},
        {VulnClass::CopErUncompressed, 0, 10798117, 12907904, false},
    };
    for (const Pin &pin : pins) {
        const u64 n = M::storedBitsOf(pin.cls);
        const auto triples = static_cast<double>(n * (n - 1) * (n - 2) / 6);
        const ConditionalOutcome o = M::conditionalOutcome(pin.cls, 3);
        const std::array<u64, 4> census = {
            static_cast<u64>(std::llround(o.benign * triples)),
            static_cast<u64>(std::llround(o.corrected * triples)),
            static_cast<u64>(std::llround(o.detected * triples)),
            static_cast<u64>(std::llround(o.silent * triples))};
        const std::array<u64, 4> pinned = {0, pin.corrected, pin.detected,
                                           pin.silent};
        EXPECT_EQ(census, pinned) << "cls " << static_cast<int>(pin.cls);
        if (!pin.bruteForce)
            continue;
        std::vector<unsigned> every(n);
        std::iota(every.begin(), every.end(), 0u);
        EXPECT_EQ(classifyEveryTriple(pin.cls, every), census)
            << "cls " << static_cast<int>(pin.cls);
    }
}

TEST(ErrorModel, WordCensusMatchesClassifierInsideWordZero)
{
    // The census of one codeword, read through the block verdict with
    // every other word clean, must count each triple inside word 0
    // exactly as the classifier does; this also checks the appended
    // check-bit layout of the ECC DIMM.
    for (const VulnClass cls :
         {VulnClass::EccDimm, VulnClass::CopProtected4,
          VulnClass::CopProtected8, VulnClass::WideCode}) {
        const ClassGeometry geo = geometryOf(cls);
        const WordCensus word = censusWord(*geo.code);
        std::array<u64, 4> expected{};
        for (unsigned fate = 0; fate < kFates; ++fate)
            expected[static_cast<unsigned>(
                geo.verdict(fate & kInvalid, fate))] += word[3][fate];

        const WordLayout layout = geo.layout();
        std::vector<unsigned> word0;
        for (unsigned b = 0; b < geo.storedBits(); ++b) {
            unsigned w, pos;
            layout.locate(b, w, pos);
            if (w == 0)
                word0.push_back(b);
        }
        ASSERT_EQ(word0.size(), geo.code->codeBits());
        EXPECT_EQ(classifyEveryTriple(cls, word0), expected)
            << "cls " << static_cast<int>(cls);
    }
}

TEST(FaultInjector, MonteCarloMatchesAnalyticDoubleErrorSplit)
{
    // Cross-validation: the analytic CopProtected4 detected/silent
    // split must match injection. Analytic: detected fraction =
    // same-word pairs / all pairs = (4 * C(128,2)) / C(512,2).
    const ErrorRateModel model;
    const double cycles = 1e12;
    const ExposureOutcome o =
        model.outcome(VulnClass::CopProtected4, cycles);
    const double analytic_detected_frac =
        o.detected / (o.detected + o.silent);
    EXPECT_NEAR(analytic_detected_frac, 127.0 / 511.0, 1e-6);
}

} // namespace
} // namespace cop
