/**
 * @file
 * Synthetic 64-byte block content generators. These stand in for the
 * data contents of SPEC2006/PARSEC cache blocks that the paper captured
 * with Pin (Section 4); each generator produces the bit-level structure
 * one data category exhibits, so the compression and alias machinery
 * sees realistic inputs. DESIGN.md section 1 documents the substitution.
 */

#ifndef COP_WORKLOADS_BLOCK_GEN_HPP
#define COP_WORKLOADS_BLOCK_GEN_HPP

#include "common/cache_block.hpp"
#include "common/rng.hpp"

namespace cop {

/** Data categories a block can belong to. */
enum class BlockCategory : u8 {
    Zero = 0,      ///< Untouched/zeroed memory.
    SmallInt64,    ///< 8 sign-extended 64-bit values, mixed signs.
    SmallInt32,    ///< 16 sign-extended 32-bit values.
    FpSimilar,     ///< Doubles with clustered exponents, mixed signs.
    Text,          ///< ASCII characters.
    Pointer,       ///< Heap pointers sharing high bits.
    Sparse,        ///< Random bytes with embedded zero runs.
    MixedWords,    ///< Mostly random 32-bit words, a few small values:
                   ///< compressible only by a small amount (Figure 1's
                   ///< low-target-ratio population).
    Random,        ///< Uniform random (incompressible).
    kCount,
};

/** Number of categories. */
inline constexpr unsigned kBlockCategories =
    static_cast<unsigned>(BlockCategory::kCount);

/** Human-readable category name. */
const char *blockCategoryName(BlockCategory c);

/** Knobs shaping the generators, set per benchmark profile. */
struct BlockGenParams
{
    /** Max magnitude (power of two) of small-int values. */
    unsigned intMagnitudeBits = 16;
    /** Probability a small-int value is negative. */
    double intNegativeProb = 0.3;
    /** Exponent spread within an FpSimilar block (0 = identical). */
    unsigned fpExponentSpread = 0;
    /** Probability an FP value is negative (drives Figure 4's shift). */
    double fpNegativeProb = 0.4;
    /** Zero-run count in a Sparse block. */
    unsigned sparseRuns = 4;
    /** Random high bits of the shared pointer base (entropy below). */
    unsigned pointerLowBits = 24;
    /** Random (incompressible) 32-bit words in a MixedWords block. */
    unsigned mixedRandomWords = 12;

    bool operator==(const BlockGenParams &) const = default;
};

/**
 * Generate the content of category @p c using @p rng. Deterministic for
 * a given RNG state, so block contents are a pure function of
 * (profile seed, address, version).
 */
CacheBlock generateBlock(BlockCategory c, const BlockGenParams &params,
                         Rng &rng);

} // namespace cop

#endif // COP_WORKLOADS_BLOCK_GEN_HPP
