/**
 * @file
 * Pieces shared by the flip-pattern models, ErrorRateModel's
 * classifier and the OndieEcc filter: where a stored bit sits in a
 * block's codewords and the one SEC word resolver. Private to
 * src/reliability/.
 */

#ifndef COP_RELIABILITY_PATTERN_MODEL_HPP
#define COP_RELIABILITY_PATTERN_MODEL_HPP

#include <algorithm>
#include <vector>

#include "ecc/secded.hpp"

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

/** What a single-error-correcting decoder did to one word's flips. */
enum class SecFix : u8 {
    Clean,     ///< Zero syndrome: any flips alias to a codeword and stay.
    Unmatched, ///< No column matches the syndrome: the flips stay.
    Undone,    ///< The decoder flipped back one of the flips.
    Added,     ///< The decoder flipped a new position: a miscorrection.
};

/**
 * Run a SEC decoder's column algebra on word @p word of a flip
 * pattern: gather the word's codeword positions of @p flips, placed by
 * @p layout, into @p pos, decode, and leave in @p pos the flips the
 * decoder hands on.
 */
inline SecFix
resolveSecWord(const SecCode &code, const WordLayout &layout,
               const std::vector<unsigned> &flips, unsigned word,
               std::vector<unsigned> &pos)
{
    // Patterns are tiny, so a per-word rescan beats allocating buckets.
    pos.clear();
    for (const unsigned b : flips) {
        unsigned w, p;
        layout.locate(b, w, p);
        if (w == word)
            pos.push_back(p);
    }
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

} // namespace cop

#endif // COP_RELIABILITY_PATTERN_MODEL_HPP
