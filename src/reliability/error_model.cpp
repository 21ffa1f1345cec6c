#include "reliability/error_model.hpp"

#include <map>
#include <mutex>

#include "common/rng.hpp"
#include "ecc/secded.hpp"
#include "reliability/pattern_model.hpp"

namespace cop {

namespace {

/**
 * P(exactly 2 of @p total flipped bits share one of the words) to
 * second order: pairs * p^2, with pairs counted per word.
 */
double
doubleInOneWord(double p, unsigned word_bits, unsigned words)
{
    const double pairs_per_word =
        0.5 * static_cast<double>(word_bits) * (word_bits - 1);
    return words * pairs_per_word * p * p;
}

/** P(two flips land in two different words), second order. */
double
doubleAcrossWords(double p, unsigned word_bits, unsigned words)
{
    const double total_bits = static_cast<double>(word_bits) * words;
    const double all_pairs = 0.5 * total_bits * (total_bits - 1);
    return (all_pairs - doubleInOneWord(1.0, word_bits, words)) * p * p;
}

/**
 * Word geometry of one protection class, the one table behind the
 * closed forms, the pattern classifier and the stored-bit count: the
 * SECDED code guarding each of the block's words, COP's minimum
 * valid-codeword count (0 = no threshold), and whether the check bits
 * sit inline after each word's data or after all the data.
 */
struct ClassGeometry
{
    const HsiaoCode *code;
    unsigned words;
    unsigned validThreshold;
    bool checkBitsAppended;

    unsigned storedBits() const { return words * code->codeBits(); }

    WordLayout
    layout() const
    {
        return {code->dataBits(), code->codeBits(),
                checkBitsAppended ? words * code->dataBits() : 0};
    }

    /**
     * COP counts valid codewords first: with @p invalid words failing,
     * a block below the threshold is misclassified as raw and handed
     * over undecoded (Section 3.1).
     */
    bool
    misclassified(unsigned invalid) const
    {
        return validThreshold != 0 && words - invalid < validThreshold;
    }
};

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

/**
 * The seeded Monte-Carlo tally behind the 3+-flip conditionalOutcome:
 * @p trials patterns of @p flips distinct stored bits of @p cls, drawn
 * from @p rng, each classified exactly by classifyPattern.
 */
ConditionalOutcome
tallyOutcomes(Rng &rng, VulnClass cls, unsigned flips, u64 trials)
{
    const unsigned bits = ErrorRateModel::storedBitsOf(cls);
    std::vector<unsigned> pattern;
    u64 tally[4] = {0, 0, 0, 0};
    for (u64 t = 0; t < trials; ++t) {
        drawDistinct(rng, bits, flips, pattern);
        ++tally[static_cast<unsigned>(
            ErrorRateModel::classifyPattern(cls, pattern))];
    }
    const auto n = static_cast<double>(trials);
    ConditionalOutcome out;
    out.benign = static_cast<double>(tally[0]) / n;
    out.corrected = static_cast<double>(tally[1]) / n;
    out.detected = static_cast<double>(tally[2]) / n;
    out.silent = static_cast<double>(tally[3]) / n;
    return out;
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
    // Singles are corrected; a pair in one word is a detected double; a
    // pair across words is two corrected singles unless it leaves too
    // few valid codewords for COP's threshold, and then it is silent.
    const ClassGeometry geo = geometryOf(cls);
    const unsigned n = geo.code->codeBits();
    out.detected = doubleInOneWord(p, n, geo.words) * window_scale;
    if (geo.misclassified(2))
        out.silent = doubleAcrossWords(p, n, geo.words) * window_scale;
    return out;
}

ConditionalOutcome
ErrorRateModel::conditionalOutcome(VulnClass cls, unsigned flips)
{
    ConditionalOutcome out;
    if (flips == 0) {
        out.benign = 1.0;
        return out;
    }
    if (cls == VulnClass::Unprotected) {
        out.silent = 1.0; // any flip in raw data goes unnoticed
        return out;
    }
    if (flips == 1) {
        out.corrected = 1.0; // every class corrects singles
        return out;
    }
    if (flips > 2) {
        // Beyond the closed-form regime (on-die miscorrection can
        // expand a 2-flip raw event into 3 stored flips): seeded
        // Monte-Carlo over uniform patterns, each classified exactly
        // by the column-algebra classifier. Cached per (class, flips);
        // deterministic, so campaigns can gate on the numbers. Unlike
        // OndieEcc::model's two flips this stays sampled: enumerating
        // every 3-flip pattern measured 1.9-3.9 s per class, against
        // 0.02-0.04 s for these 200k draws.
        static std::mutex mutex;
        static std::map<std::pair<unsigned, unsigned>, ConditionalOutcome>
            cache;
        const std::pair<unsigned, unsigned> key{
            static_cast<unsigned>(cls), flips};
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = cache.find(key);
        if (it != cache.end())
            return it->second;

        constexpr u64 kTrials = 200000;
        Rng rng(0x0D1ECA57ULL ^ (static_cast<u64>(cls) << 32) ^ flips);
        out = tallyOutcomes(rng, cls, flips, kTrials);
        cache.emplace(key, out);
        return out;
    }

    // Two uniform flips over N stored bits split into n words of w
    // bits: P(same word) = n * C(w,2) / C(N,2). A same-word pair is a
    // detected double; a cross-word pair is silent below COP's
    // threshold and two corrected singles otherwise.
    const ClassGeometry geo = geometryOf(cls);
    const unsigned w = geo.code->codeBits();
    const unsigned N = geo.storedBits();
    const double word_pairs = 0.5 * w * (w - 1) * geo.words;
    const double all_pairs = 0.5 * static_cast<double>(N) * (N - 1);
    const double same = word_pairs / all_pairs;
    out.detected = same;
    if (geo.misclassified(2))
        out.silent = 1.0 - same;
    else
        out.corrected = 1.0 - same;
    return out;
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

    bool any_uncorrectable = false;
    bool any_corrected = false;
    bool wrong_data = false;
    unsigned invalid_words = 0;
    std::vector<unsigned> pos;
    for (unsigned w = 0; w < geo.words; ++w) {
        const SecFix fix = resolveSecWord(*geo.code, layout, bits, w, pos);
        if (fix != SecFix::Clean)
            ++invalid_words;
        if (fix == SecFix::Unmatched) {
            any_uncorrectable = true;
            continue;
        }
        any_corrected |= fix != SecFix::Clean;
        // An alias (flips forming a codeword) leaves every flip and a
        // correction its residue; residue in check bits is invisible to
        // the data-compare oracle.
        for (const unsigned p : pos)
            wrong_data |= p < geo.code->dataBits();
    }

    // Below COP's threshold the stored (compressed + hashed) bits are
    // handed over as data, so the block is silent regardless of where
    // the flips sit (Section 3.1).
    if (geo.misclassified(invalid_words))
        return OutcomeKind::Silent;
    if (any_uncorrectable)
        return OutcomeKind::Detected;
    if (wrong_data)
        return OutcomeKind::Silent;
    if (any_corrected)
        return OutcomeKind::Corrected;
    return OutcomeKind::Benign; // residue confined to check bits
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
