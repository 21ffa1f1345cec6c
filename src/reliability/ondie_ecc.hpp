/**
 * @file
 * Per-chip on-die SEC model (Patel, arXiv 2204.10387) that sits
 * *between* the LiveInjector's raw flips and the stored image every
 * rank-level scheme reads. Modern DRAM chips run a single-error-
 * correcting code over 128-bit internal words with 8 hidden check bits
 * per word; the host never sees those check bits, and the chip has no
 * channel to report what it did. The model therefore acts as a pure
 * pre-filter on flip *patterns*:
 *
 *  - a raw fault event is drawn over the extended geometry (stored
 *    bits + 8 hidden check bits per 128-bit word);
 *  - each on-die word decodes independently: a zero syndrome forwards
 *    the word untouched, a syndrome matching a column flips that bit
 *    (a true correction only for single-flip words — for multi-flip
 *    words the matched bit is never one of the flipped bits, so the
 *    "correction" *adds* a flip: a miscorrection that can expand a
 *    2-flip input into 3), and an unmatched syndrome forwards the word
 *    unchanged (detection with nobody to tell);
 *  - only the surviving flips at *stored* (host-visible) positions are
 *    forwarded into the image; check-bit residue is invisible.
 *
 * Everything operates on the codes' column algebra (the codes are
 * linear, so flips compose by XOR of columns) — no codeword buffers,
 * no knowledge of the block's data. Composable with every scheme via
 * FaultConfig::ondieEcc; the recovery pipeline is untouched because it
 * only ever sees the post-filter image.
 */

#ifndef COP_RELIABILITY_ONDIE_ECC_HPP
#define COP_RELIABILITY_ONDIE_ECC_HPP

#include <vector>

#include "common/types.hpp"
#include "mem/vuln_log.hpp"
#include "reliability/error_model.hpp"

namespace cop {

/** What one on-die filtered fault event looked like to the host. */
enum class OndieOutcome : u8 {
    /** Every flip scrubbed (or confined to hidden check bits). */
    Corrected,
    /** At least one word's SEC added a flip; a nonzero pattern passed. */
    Miscorrected,
    /** A nonzero pattern passed through without any miscorrection. */
    Forwarded,
};

/**
 * Analytic split for a scheme with the on-die filter in front, the
 * counterpart of ErrorRateModel::conditionalOutcome for filtered
 * arrival. `onArrival` is conditioned on the event forwarding a
 * nonempty stored-bit pattern — the only events the rank-level
 * decoders (and the measured err_* split) can observe.
 */
struct OndieModelResult
{
    ConditionalOutcome onArrival;
    double correctedOnDie = 0;    ///< Fraction of raw events fully scrubbed.
    double miscorrectedOnDie = 0; ///< Fraction with an SEC-added flip.
    double forwardedOnDie = 0;    ///< Fraction forwarded unmodified.
};

class OndieEcc
{
  public:
    /** On-die internal word width (data portion). */
    static constexpr unsigned kWordBits = 128;
    /** Hidden check bits per on-die word. */
    static constexpr unsigned kCheckBitsPerWord = 8;

    /** On-die words covering @p stored_bits host-visible bits. */
    static unsigned
    words(unsigned stored_bits)
    {
        return (stored_bits + kWordBits - 1) / kWordBits;
    }

    /**
     * Raw fault geometry: the host-visible stored bits plus the hidden
     * on-die check bits behind them. Raw flip indices in
     * [0, stored_bits) address the stored image directly; indices in
     * [stored_bits, extendedBits) address check bit (i - stored_bits)
     * laid out 8 per word, word-major.
     */
    static unsigned
    extendedBits(unsigned stored_bits)
    {
        return stored_bits + kCheckBitsPerWord * words(stored_bits);
    }

    /**
     * Run one raw flip pattern (distinct indices < extendedBits) through
     * the per-word SEC filter. @p out receives the surviving flips at
     * stored-image positions (< stored_bits), sorted ascending. The
     * event is Corrected iff @p out comes back empty.
     */
    static OndieOutcome filter(unsigned stored_bits,
                               const std::vector<unsigned> &raw_flips,
                               std::vector<unsigned> &out);

    /**
     * Exact composed on-die + rank-level outcome split for @p raw_flips
     * uniform raw flips over the extended geometry of @p cls: every
     * pattern of that many distinct positions is filtered and counted
     * once (147k-189k patterns per class at two flips). `onArrival`
     * classifies each *forwarded* pattern with classifyPattern (whose
     * resolver and verdict conditionalOutcome's census shares), so it
     * is directly comparable to a measured err_* split from a campaign
     * with FaultConfig::ondieEcc on. Callers pass one or two flips; the
     * pattern count is C(extendedBits, raw_flips).
     */
    static OndieModelResult model(VulnClass cls, unsigned raw_flips);
};

} // namespace cop

#endif // COP_RELIABILITY_ONDIE_ECC_HPP
