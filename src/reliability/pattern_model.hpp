/**
 * @file
 * Pieces shared by ErrorRateModel's classifier and census and the
 * OndieEcc filter: where a stored bit sits in a block's codewords, the
 * one SEC word resolver, the per-class geometry with its block verdict
 * and the census of one codeword. Private to src/reliability/.
 */

#ifndef COP_RELIABILITY_PATTERN_MODEL_HPP
#define COP_RELIABILITY_PATTERN_MODEL_HPP

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>
#include <vector>

#include "ecc/secded.hpp"
#include "reliability/error_model.hpp"

namespace cop {

/**
 * Where a flat stored-bit index sits among a block's codewords: words
 * laid out inline (each word's data bits, then its check bits), or,
 * from @p checkStart on, every word's check bits appended after all
 * the data (an ECC DIMM's ninth chip, a DRAM chip's hidden on-die check
 * bits).
 */
struct WordLayout
{
    unsigned dataBits;   ///< Data bits per codeword.
    unsigned codeBits;   ///< Data plus check bits per codeword.
    unsigned checkStart; ///< First appended check bit; 0 = inline.

    void
    locate(unsigned b, unsigned &word, unsigned &pos) const
    {
        if (checkStart == 0) {
            word = b / codeBits;
            pos = b % codeBits;
        } else if (b < checkStart) {
            word = b / dataBits;
            pos = b % dataBits;
        } else {
            const unsigned check_bits = codeBits - dataBits;
            word = (b - checkStart) / check_bits;
            pos = dataBits + (b - checkStart) % check_bits;
        }
    }
};

/**
 * Call @p visit with every ascending pattern of @p k distinct positions
 * below @p n, once each (k = 0 visits the empty pattern).
 */
template <typename Visit>
void
forEachPattern(unsigned n, unsigned k, Visit &&visit)
{
    COP_ASSERT(k <= n);
    std::vector<unsigned> pattern(k);
    std::iota(pattern.begin(), pattern.end(), 0u);
    for (;;) {
        visit(std::as_const(pattern));
        // Advance the rightmost position that still has room, and pack
        // the ones after it directly behind it.
        unsigned i = k;
        while (i > 0 && pattern[i - 1] == n - k + (i - 1))
            --i;
        if (i == 0)
            return;
        ++pattern[i - 1];
        for (unsigned j = i; j < k; ++j)
            pattern[j] = pattern[j - 1] + 1;
    }
}

/** Gather into @p pos the positions of @p flips inside word @p word. */
inline void
gatherWord(const WordLayout &layout, const std::vector<unsigned> &flips,
           unsigned word, std::vector<unsigned> &pos)
{
    // Patterns are tiny, so a per-word rescan beats allocating buckets.
    pos.clear();
    for (const unsigned b : flips) {
        unsigned w, p;
        layout.locate(b, w, p);
        if (w == word)
            pos.push_back(p);
    }
}

/** What a single-error-correcting decoder did to one word's flips. */
enum class SecFix : u8 {
    Clean,     ///< Zero syndrome: any flips alias to a codeword and stay.
    Unmatched, ///< No column matches the syndrome: the flips stay.
    Undone,    ///< The decoder flipped back one of the flips.
    Added,     ///< The decoder flipped a new position: a miscorrection.
};

/**
 * Run a SEC decoder's column algebra on one word's flipped codeword
 * positions @p pos, and leave in @p pos the flips it hands on.
 */
inline SecFix
resolveSec(const SecCode &code, std::vector<unsigned> &pos)
{
    u32 syn = 0;
    for (const unsigned p : pos)
        syn ^= code.column(p);
    if (syn == 0)
        return SecFix::Clean;
    const int fix = code.bitForSyndrome(syn);
    if (fix < 0)
        return SecFix::Unmatched;
    // The decoder flips bit `fix`. A lone flip is undone (its syndrome
    // is its own column); for a multi-flip word `fix` is (all but
    // degenerately) a new position, so the "correction" adds a flip.
    const auto it =
        std::find(pos.begin(), pos.end(), static_cast<unsigned>(fix));
    if (it != pos.end()) {
        pos.erase(it);
        return SecFix::Undone;
    }
    pos.push_back(static_cast<unsigned>(fix));
    return SecFix::Added;
}

/**
 * A decoded word's fate, as flags: it failed its syndrome check (COP
 * counts these against its threshold), no column matched, or flips
 * remain at data positions of a word the decoder passed on. kFates
 * sizes tables indexed by fate.
 */
constexpr unsigned kInvalid = 1, kUnmatched = 2, kWrongData = 4, kFates = 8;

/** Resolve one word's flips at @p pos under @p code into its fate. */
inline unsigned
secWordFate(const SecCode &code, std::vector<unsigned> &pos)
{
    const SecFix fix = resolveSec(code, pos);
    if (fix == SecFix::Unmatched)
        return kInvalid | kUnmatched;
    // An alias (flips forming a codeword) leaves every flip and a
    // correction its residue; residue in check bits is invisible to
    // the data-compare oracle.
    unsigned fate = fix == SecFix::Clean ? 0 : kInvalid;
    for (const unsigned p : pos)
        if (p < code.dataBits())
            fate |= kWrongData;
    return fate;
}

/**
 * Word geometry of one protection class, behind the classifier, the
 * census and the stored-bit count: the SECDED code of each word, COP's
 * minimum valid-codeword count (0 = none), and whether the check bits
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

    /** The outcome of @p invalid words whose fates OR to @p fates. */
    OutcomeKind
    verdict(unsigned invalid, unsigned fates) const
    {
        // COP counts valid codewords first: below its threshold the
        // stored (compressed + hashed) bits are handed over as data,
        // silent wherever the flips sit (Section 3.1).
        if (words - invalid < validThreshold)
            return OutcomeKind::Silent;
        if (fates & kUnmatched)
            return OutcomeKind::Detected;
        if (fates & kWrongData)
            return OutcomeKind::Silent;
        if (invalid > 0)
            return OutcomeKind::Corrected; // every invalid word resolved
        return OutcomeKind::Benign; // residue confined to check bits
    }
};

/** The geometry of protected class @p cls (fatal for Unprotected). */
ClassGeometry geometryOf(VulnClass cls);

/** @p tally, indexed by OutcomeKind, as fractions of @p total patterns. */
inline ConditionalOutcome
outcomeShares(const std::array<u64, 4> &tally, u64 total)
{
    const auto n = static_cast<double>(total);
    return {tally[0] / n, tally[1] / n, tally[2] / n, tally[3] / n};
}

/** Most flips per pattern the census counts. */
constexpr unsigned kMaxCensusFlips = 3;
/** Pattern counts inside one codeword: [flips][fate]. */
using WordCensus = std::array<std::array<u64, kFates>, kMaxCensusFlips + 1>;

/** Count every pattern of up to kMaxCensusFlips flips in a codeword. */
inline WordCensus
censusWord(const SecCode &code)
{
    WordCensus census{};
    std::vector<unsigned> pos;
    for (unsigned j = 0; j <= kMaxCensusFlips; ++j)
        forEachPattern(code.codeBits(), j,
                       [&](const std::vector<unsigned> &flips) {
                           // Refilling beats copy-assigning (measured).
                           pos.clear();
                           for (const unsigned f : flips)
                               pos.push_back(f);
                           ++census[j][secWordFate(code, pos)];
                       });
    return census;
}

} // namespace cop

#endif // COP_RELIABILITY_PATTERN_MODEL_HPP
