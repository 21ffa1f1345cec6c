/**
 * @file
 * The combined COP compression scheme (paper Sections 3.2 / 4): every
 * compressed payload leads with a 2-bit tag selecting TXT, MSB or RLE.
 * In the 4-byte ECC configuration all three schemes participate; in the
 * 8-byte configuration TXT's 448-bit output exceeds the 446-bit budget,
 * so only MSB (10-bit elide) and RLE are available — matching the paper,
 * whose Figure 8 (8-byte) omits TXT while Figure 9 (4-byte) includes it.
 */

#ifndef COP_COMPRESS_COMBINED_HPP
#define COP_COMPRESS_COMBINED_HPP

#include <memory>
#include <optional>
#include <vector>

#include "compress/compressor.hpp"
#include "compress/msb.hpp"
#include "compress/rle.hpp"
#include "compress/txt.hpp"

namespace cop {

/**
 * Budget-driven multi-scheme compressor producing tagged payloads.
 *
 * Payload layout (LSB-first bit stream): 2-bit scheme tag, then the
 * scheme's stream, then zero padding up to payloadBits().
 */
class CombinedCompressor
{
  public:
    /**
     * @param check_bytes ECC bytes to free per 64-byte block: 4 (the
     *        paper's preferred configuration) or 8.
     */
    explicit CombinedCompressor(unsigned check_bytes);

    /** Bits of payload carried by a compressed block (480 or 448). */
    unsigned payloadBits() const { return payload_bits_; }
    /** Payload size in whole bytes (60 or 56). */
    unsigned payloadBytes() const { return payload_bits_ / 8; }
    /** Bits available to a scheme's stream after the tag (478 or 446). */
    unsigned streamBudget() const { return payload_bits_ - kSchemeTagBits; }
    /** ECC bytes this configuration frees per block. */
    unsigned checkBytes() const { return check_bytes_; }

    /**
     * Try to compress @p block into @p payload (payloadBytes() bytes,
     * zeroed here). Schemes are tried in tag order; each trial is a
     * digest-based admission check computed once per block, so losing
     * schemes cost a mask test rather than a full scan.
     *
     * @param trials if non-null, incremented by the number of scheme
     *        admission checks performed.
     * @return the scheme used, or std::nullopt if incompressible.
     */
    std::optional<SchemeId> compress(const CacheBlock &block,
                                     std::span<u8> payload,
                                     unsigned *trials = nullptr) const;

    /** Reverse of compress(); @p payload must hold payloadBytes(). */
    CacheBlock decompress(std::span<const u8> payload) const;

    /**
     * compress() without the payload: the same admission checks in the
     * same order (so the same @p trials count), and the scheme they
     * pick, or std::nullopt if incompressible.
     */
    std::optional<SchemeId> classify(const CacheBlock &block,
                                     unsigned *trials = nullptr) const;

    /** True iff any participating scheme fits the budget. */
    bool
    compressible(const CacheBlock &block, unsigned *trials = nullptr) const
    {
        return pick(block, trials) != nullptr;
    }

    /** Participating schemes, in tag order. */
    const std::vector<const BlockCompressor *> &schemes() const
    {
        return views_;
    }

  private:
    const BlockCompressor *schemeById(SchemeId id) const;
    /** The first scheme, in tag order, that admits @p block. */
    const BlockCompressor *pick(const CacheBlock &block,
                                unsigned *trials) const;

    unsigned check_bytes_;
    unsigned payload_bits_;
    std::vector<std::unique_ptr<BlockCompressor>> owned_;
    std::vector<const BlockCompressor *> views_;
};

} // namespace cop

#endif // COP_COMPRESS_COMBINED_HPP
