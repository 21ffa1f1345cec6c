/**
 * @file
 * DRAM field failure modes, after Sridharan & Liberty's field study as
 * discussed in paper Section 4: 49.7% of observed failures were
 * single-bit, 2.5% multi-bit within one word, 12.7% multi-bit within
 * one row; single-column failures "will generally corrupt only one bit
 * per block". The paper argues qualitatively which modes SECDED/COP
 * can and cannot repair; this module makes the argument quantitative
 * by generating each mode's bit-flip pattern for Monte-Carlo injection
 * through the real decoders (`figures failure_mode_study`).
 */

#ifndef COP_RELIABILITY_FAILURE_MODES_HPP
#define COP_RELIABILITY_FAILURE_MODES_HPP

#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace cop {

/** Failure modes, at 64-byte-block granularity. */
enum class FailureMode : u8 {
    /** One flipped bit (49.7% of field failures). */
    SingleBit,
    /** 2-4 flips inside one aligned 64-bit word (2.5%). */
    SameWordMulti,
    /** Column failure: corrupts one (fixed-position) bit per block. */
    SingleColumn,
    /** Row failure: a burst of flips across the whole block (12.7%). */
    SameRow,
    /** Whole-chip failure on a x8 rank: one byte lane corrupted. */
    SingleChip,
    kCount,
};

inline constexpr unsigned kFailureModes =
    static_cast<unsigned>(FailureMode::kCount);

const char *failureModeName(FailureMode m);

/**
 * Field-population fraction of a mode (Sridharan & Liberty, as quoted
 * in the paper). SingleColumn and SingleChip report the remainder
 * split used for presentation; the study's remaining categories are
 * bank/pin failures outside this model's scope.
 */
double failureModeFieldFraction(FailureMode m);

/**
 * Produce the flip positions (bit indices in [0, 512)) one event of
 * mode @p m inflicts on a block.
 */
void generateFailureFlips(FailureMode m, Rng &rng,
                          std::vector<unsigned> &bits);

} // namespace cop

#endif // COP_RELIABILITY_FAILURE_MODES_HPP
