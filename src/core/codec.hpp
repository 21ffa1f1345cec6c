/**
 * @file
 * CopCodec — the paper's primary contribution (Sections 3.1/3.2,
 * Figure 2): the encoder/compressor that turns a 64-byte block into a
 * compressed + SECDED-protected + hashed image of the same size, and the
 * decoder that recognises protected blocks purely by counting valid code
 * words, corrects errors, and passes unprotected blocks through
 * untouched.
 */

#ifndef COP_CORE_CODEC_HPP
#define COP_CORE_CODEC_HPP

#include <optional>

#include "compress/combined.hpp"
#include "core/config.hpp"
#include "core/static_hash.hpp"
#include "ecc/secded.hpp"

namespace cop {

/** What the encoder decided to do with a writeback. */
enum class EncodeStatus : u8 {
    /** Block compressed; stored with inline ECC (and hashed). */
    Protected,
    /** Incompressible; stored raw and unprotected. */
    Unprotected,
    /**
     * Incompressible AND an alias (>= threshold valid code words): must
     * not be written to DRAM; the LLC keeps it pinned (Section 3.1,
     * Figure 3).
     */
    AliasRejected,
};

/** Result of CopCodec::encode. */
struct CopEncodeResult
{
    EncodeStatus status = EncodeStatus::Unprotected;
    /**
     * Image to store in DRAM (meaningless for AliasRejected; left empty
     * by CopCodec::classify).
     */
    CacheBlock stored;
    /** Compression scheme used (valid when status == Protected). */
    SchemeId scheme = SchemeId::Msb;
    /** Scheme admission checks this encode performed (perf counter). */
    unsigned schemeTrials = 0;

    bool isProtected() const { return status == EncodeStatus::Protected; }
};

/** Result of CopCodec::decode. */
struct CopDecodeResult
{
    /** Decoder's determination: >= threshold valid code words seen. */
    bool compressed = false;
    /** Application data handed to the LLC. */
    CacheBlock data;
    /** Valid (zero-syndrome) code words counted before correction. */
    unsigned validCodewords = 0;
    /** Code words repaired by SECDED. */
    unsigned correctedWords = 0;
    /**
     * A failing code word was uncorrectable (double error within one
     * word): detected data loss.
     */
    bool detectedUncorrectable = false;
};

/**
 * The COP encoder/decoder pair. Stateless (thread-compatible); one
 * instance per memory controller.
 */
class CopCodec
{
  public:
    explicit CopCodec(const CopConfig &cfg = CopConfig::fourByte());

    const CopConfig &config() const { return cfg_; }
    const CombinedCompressor &compressor() const { return compressor_; }

    /**
     * Encode a writeback: compress + protect if possible, otherwise pass
     * raw, rejecting incompressible aliases.
     */
    CopEncodeResult encode(const CacheBlock &data) const;

    /**
     * encode() without building the image: the same status, scheme
     * and schemeTrials, with `stored` left empty.
     * The decoder's compressed-or-raw answer is this status for every
     * image encode() stores (the alias test rejects every raw block it
     * would misread), so where nothing can corrupt memory a fill needs
     * only the status and the block's content.
     */
    CopEncodeResult classify(const CacheBlock &data) const;

    /**
     * Decode a block read from DRAM, per Figure 2: un-hash, count valid
     * code words, correct and decompress if the count clears the
     * threshold, otherwise return the raw bits unmodified.
     */
    CopDecodeResult decode(const CacheBlock &stored) const;

    /**
     * Number of zero-syndrome code words the decoder would see for this
     * stored image (static hash removed first if configured).
     */
    unsigned countValidCodewords(const CacheBlock &stored) const;

    /**
     * Would this raw (uncompressed) block be mistaken for a compressed
     * one? (Section 3.1's alias test, applied on the writeback path.)
     */
    bool
    isAlias(const CacheBlock &raw) const
    {
        return countValidCodewords(raw) >= cfg_.threshold;
    }

    /**
     * Build a protected stored image from an already-assembled payload
     * (payloadBits() bits). Used by tests and by COP-ER re-encodes.
     */
    CacheBlock protectPayload(std::span<const u8> payload) const;

    /** Extract the payload bits of a (corrected) protected image. */
    void extractPayload(const CacheBlock &unhashed,
                        std::span<u8> payload) const;

  private:
    /** Status of an incompressible block: raw, or a rejected alias. */
    EncodeStatus
    rawStatus(const CacheBlock &data) const
    {
        return isAlias(data) ? EncodeStatus::AliasRejected
                             : EncodeStatus::Unprotected;
    }

    /** XOR the static hash in or out (self-inverse). */
    void applyHash(CacheBlock &block) const;

    CopConfig cfg_;
    CombinedCompressor compressor_;
};

} // namespace cop

#endif // COP_CORE_CODEC_HPP
