#include "reliability/error_model.hpp"

#include "ecc/secded.hpp"
#include "reliability/pattern_model.hpp"

namespace cop {

ClassGeometry
geometryOf(VulnClass cls)
{
    switch (cls) {
      case VulnClass::EccDimm:
        // 512 data bits in 8x64, then the 64 check bits 8 per word.
        return {&codes::dimm72(), 8, 0, true};
      case VulnClass::CopProtected4:
        return {&codes::full128(), 4, 3, false};
      case VulnClass::CopProtected8:
        return {&codes::short64(), 8, 5, false};
      case VulnClass::WideCode:
      case VulnClass::CopErUncompressed:
        return {&codes::wide523(), 1, 0, false};
      case VulnClass::Unprotected:
      case VulnClass::kCount:
        break;
    }
    COP_PANIC("bad vuln class");
}

namespace {

/** A block's flip patterns counted by outcome: [flips][OutcomeKind]. */
using BlockCensus = std::array<std::array<u64, 4>, kMaxCensusFlips + 1>;

/**
 * The census of @p geo: the word census composed over the block's words
 * by convolution over (flips, invalid words, OR of the word fates),
 * then each state classified by the block verdict.
 */
BlockCensus
censusBlock(const ClassGeometry &geo)
{
    const WordCensus word = censusWord(*geo.code);
    constexpr unsigned F = kMaxCensusFlips + 1;
    // [flips][invalid words][fates]: only a hit word is invalid, and
    // skipping empty word entries keeps invalid words <= flips.
    using States = std::array<std::array<std::array<u64, kFates>, F>, F>;
    States block{};
    block[0][0][0] = 1;
    for (unsigned w = 0; w < geo.words; ++w) {
        States next{};
        for (unsigned k = 0; k < F; ++k)
            for (unsigned inv = 0; inv <= k; ++inv)
                for (unsigned fates = 0; fates < kFates; ++fates)
                    for (unsigned j = 0; k + j < F; ++j)
                        for (unsigned fate = 0; fate < kFates; ++fate)
                            if (word[j][fate] != 0)
                                next[k + j][inv + (fate & kInvalid)]
                                    [fates | fate] +=
                                    block[k][inv][fates] * word[j][fate];
        block = next;
    }
    BlockCensus out{};
    for (unsigned k = 0; k < F; ++k)
        for (unsigned inv = 0; inv <= k; ++inv)
            for (unsigned fates = 0; fates < kFates; ++fates)
                out[k][static_cast<unsigned>(geo.verdict(inv, fates))] +=
                    block[k][inv][fates];
    return out;
}

/**
 * The census of @p cls: one immutable function-local constant per
 * geometry, built on first use (the (523,512) code's 24M triples take
 * about 0.3 s).
 */
const BlockCensus &
censusOf(VulnClass cls)
{
    switch (cls) {
      case VulnClass::EccDimm: {
        static const BlockCensus dimm = censusBlock(geometryOf(cls));
        return dimm;
      }
      case VulnClass::CopProtected4: {
        static const BlockCensus cop4 = censusBlock(geometryOf(cls));
        return cop4;
      }
      case VulnClass::CopProtected8: {
        static const BlockCensus cop8 = censusBlock(geometryOf(cls));
        return cop8;
      }
      case VulnClass::WideCode:
      case VulnClass::CopErUncompressed: {
        static const BlockCensus wide = censusBlock(geometryOf(cls));
        return wide;
      }
      case VulnClass::Unprotected:
      case VulnClass::kCount:
        break;
    }
    COP_PANIC("bad vuln class");
}

} // namespace

ExposureOutcome
ErrorRateModel::outcome(VulnClass cls, double cycles) const
{
    // Scrubbing caps the window in which a protected block can collect
    // the second error of a fatal pair; unprotected data sees no
    // benefit (there is nothing to correct at scrub time). A residency
    // of T with interval S is T/S independent S-length windows.
    double window_scale = 1.0;
    if (params_.scrubIntervalCycles > 0 &&
        cls != VulnClass::Unprotected &&
        cycles > params_.scrubIntervalCycles) {
        window_scale = cycles / params_.scrubIntervalCycles;
        cycles = params_.scrubIntervalCycles;
    }
    const double p = params_.bitFlipProbability(cycles);
    ExposureOutcome out;

    if (cls == VulnClass::Unprotected) {
        out.silent = 512.0 * p;
        return out;
    }
    // Every class corrects singles, so the second-order terms are the
    // pairs: each pair of stored bits flips with probability p^2.
    const auto &pairs = censusOf(cls)[2];
    const auto pairs_of = [&](OutcomeKind kind) {
        return static_cast<double>(pairs[static_cast<unsigned>(kind)]) *
               p * p * window_scale;
    };
    out.detected = pairs_of(OutcomeKind::Detected);
    out.silent = pairs_of(OutcomeKind::Silent);
    return out;
}

ConditionalOutcome
ErrorRateModel::conditionalOutcome(VulnClass cls, unsigned flips)
{
    if (flips > kMaxCensusFlips)
        COP_PANIC("conditionalOutcome counts at most 3 flips");
    if (cls == VulnClass::Unprotected) // any flip in raw data is silent
        return flips == 0 ? ConditionalOutcome{.benign = 1}
                          : ConditionalOutcome{.silent = 1};
    // Every pattern is counted once, so the counts sum to C(N, flips).
    const auto &count = censusOf(cls)[flips];
    return outcomeShares(count, count[0] + count[1] + count[2] + count[3]);
}

OutcomeKind
ErrorRateModel::classifyPattern(VulnClass cls,
                                const std::vector<unsigned> &bits)
{
    if (bits.empty())
        return OutcomeKind::Benign;
    if (cls == VulnClass::Unprotected)
        return OutcomeKind::Silent; // all 512 stored bits are data

    const ClassGeometry geo = geometryOf(cls);
    const WordLayout layout = geo.layout();
    for (const unsigned b : bits)
        COP_ASSERT(b < geo.storedBits());

    unsigned invalid_words = 0;
    unsigned fates = 0;
    std::vector<unsigned> pos;
    for (unsigned w = 0; w < geo.words; ++w) {
        gatherWord(layout, bits, w, pos);
        const unsigned fate = secWordFate(*geo.code, pos);
        invalid_words += fate & kInvalid;
        fates |= fate;
    }
    return geo.verdict(invalid_words, fates);
}

unsigned
ErrorRateModel::storedBitsOf(VulnClass cls)
{
    return cls == VulnClass::Unprotected ? kBlockBits
                                         : geometryOf(cls).storedBits();
}

ErrorRateReport
ErrorRateModel::evaluate(const VulnLog &log) const
{
    ErrorRateReport report;
    for (unsigned c = 0; c < kVulnClasses; ++c) {
        const auto cls = static_cast<VulnClass>(c);
        const VulnLog::Entry &entry = log.of(cls);
        if (entry.reads == 0)
            continue;
        // The model is linear (first order) in exposure for the
        // unprotected class and quadratic for protected ones; evaluate
        // at the mean residency and scale by the read count. (Jensen
        // error is negligible at these probabilities.)
        const double mean_cycles =
            entry.totalCycles / static_cast<double>(entry.reads);
        const ExposureOutcome o = outcome(cls, mean_cycles);
        const auto reads = static_cast<double>(entry.reads);
        report.silent += o.silent * reads;
        report.detected += o.detected * reads;
        report.baselineUnprotected +=
            outcome(VulnClass::Unprotected, mean_cycles).silent * reads;
    }
    report.uncorrected = report.silent + report.detected;
    return report;
}

double
ErrorRateModel::copErVsEccDimmRatio(double cycles) const
{
    const double coper =
        outcome(VulnClass::CopErUncompressed, cycles).uncorrected();
    const double dimm = outcome(VulnClass::EccDimm, cycles).uncorrected();
    return dimm > 0 ? coper / dimm : 0.0;
}

} // namespace cop
