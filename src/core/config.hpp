/**
 * @file
 * CopConfig: the handful of parameters that define a COP instance —
 * how many ECC bytes each compressed block carries, how the block is
 * sliced into SECDED code words, and the valid-code-word threshold the
 * decoder uses to distinguish compressed from uncompressed data.
 */

#ifndef COP_CORE_CONFIG_HPP
#define COP_CORE_CONFIG_HPP

#include "common/types.hpp"
#include "ecc/secded.hpp"

namespace cop {

/**
 * Static configuration of the COP codec.
 *
 * The paper's preferred configuration frees 4 bytes per block and splits
 * the result into four (128,120) SECDED code words with a 3-of-4 valid
 * threshold; the alternative frees 8 bytes into eight (64,56) code words
 * with a 5-of-8 threshold (Section 3.1).
 */
struct CopConfig
{
    /** ECC check bytes freed per 64-byte block (4 or 8). */
    unsigned checkBytes = 4;
    /** Valid code words required to treat a block as compressed. */
    unsigned threshold = 3;
    /** Apply the per-segment static hash (Section 3.1, Figure 2). */
    bool useStaticHash = true;

    /** The paper's preferred 4-byte configuration. */
    static CopConfig
    fourByte()
    {
        return CopConfig{4, 3, true};
    }

    /** The higher-correction 8-byte configuration. */
    static CopConfig
    eightByte()
    {
        return CopConfig{8, 5, true};
    }

    /** Number of SECDED code words per block (4 or 8). */
    unsigned codewords() const { return checkBytes; }
    /** Bytes per code-word segment (16 or 8). */
    unsigned segmentBytes() const { return kBlockBytes / codewords(); }
    /** Payload (compressed data + tag) bits per block (480 or 448). */
    unsigned payloadBits() const { return kBlockBits - 8 * checkBytes; }
    /** Payload data bits per code word (120 or 56). */
    unsigned dataBitsPerWord() const { return payloadBits() / codewords(); }

    /** The SECDED code protecting each segment. */
    const HsiaoCode &
    code() const
    {
        return checkBytes == 4 ? codes::full128() : codes::short64();
    }

    /** Sanity-check the configuration; fatal on nonsense. */
    void
    validate() const
    {
        if (checkBytes != 4 && checkBytes != 8)
            COP_FATAL("checkBytes must be 4 or 8");
        if (threshold < 2 || threshold > codewords())
            COP_FATAL("threshold must be in [2, codewords]");
    }
};

} // namespace cop

#endif // COP_CORE_CONFIG_HPP
