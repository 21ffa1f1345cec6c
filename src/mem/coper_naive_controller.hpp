/**
 * @file
 * The naive COP-ER variant of paper Section 3.3: "In a naïve
 * implementation, the same storage overhead as Virtualized ECC is
 * required, since incompressible blocks are not always adjacent, so ECC
 * space could be reserved for all blocks to facilitate addressing. In
 * this manifestation, the benefit of the combined approach is in
 * performance, since most of the time the check bits can be retrieved
 * with the compressed data, and the ECC region need not be accessed."
 *
 * Concretely: compressible blocks behave exactly as under COP (inline
 * ECC, no region access); incompressible blocks keep their full 64
 * bytes in place and find their (523,512) check bits by simple offset
 * arithmetic in a full-size 2-byte-per-block ECC region — no pointer
 * displacement, no valid-bit tree, no de-aliasing (so incompressible
 * aliases must still be pinned in the LLC, unlike optimised COP-ER).
 *
 * This controller exists as the ablation point between the ECC-region
 * baseline and optimised COP-ER (bench/ablation_naive_coper).
 */

#ifndef COP_MEM_COPER_NAIVE_CONTROLLER_HPP
#define COP_MEM_COPER_NAIVE_CONTROLLER_HPP

#include "core/codec.hpp"
#include "core/encode_memo.hpp"
#include "mem/ecc_region_controller.hpp"
#include "mem/meta_cache.hpp"

namespace cop {

/** Naive COP-ER: COP compression + offset-addressed full ECC region. */
class CopErNaiveController : public MemoryController
{
  public:
    CopErNaiveController(DramSystem &dram, ContentSource content,
                         Cycle decode_latency = 4,
                         u64 meta_cache_bytes = 2ULL << 20,
                         EncodeMemo *memo = nullptr);

    const char *name() const override { return "COP-ER (naive)"; }
    MemWriteResult writeback(Addr addr, const CacheBlock &data, Cycle now,
                             bool was_uncompressed) override;
    bool wouldAliasReject(const CacheBlock &data) const override;

    void
    enableBandwidthMode(unsigned beat_floor) override
    {
        MemoryController::enableBandwidthMode(beat_floor);
        codec_.enableTransferSizing();
    }

    const CopCodec &codec() const { return codec_; }

    /**
     * Compressible blocks store 512 bits in place; incompressible
     * blocks additionally expose their 11 wide-code check bits in the
     * offset-addressed region.
     */
    unsigned storedBits(Addr addr) const override;

    /** Full-size region: 2 bytes per data block (like the baseline). */
    static u64
    storageBytesFor(u64 blocks)
    {
        return EccRegionController::storageBytesFor(blocks);
    }

  protected:
    MemReadResult readImpl(Addr addr, Cycle now) override;
    void flipStoredBit(Addr addr, unsigned bit) override;
    void imageWritten(Addr addr) override { check_.erase(addr); }

  private:
    /** Access the offset-addressed ECC block for @p data_addr. */
    Cycle metaAccess(Addr data_addr, Cycle now, bool dirty);
    /** Lazily materialised wide-code check bits (raw blocks only). */
    u16 &wideCheckOf(Addr addr);

    /** codec_.encode through the memo (when attached). */
    CopEncodeResult
    encodeBlock(const CacheBlock &data) const
    {
        if (memo_ != nullptr)
            return memo_->encode(codec_, data);
        return codec_.encode(data);
    }

    EncodeMemo *memo_;
    CopCodec codec_;
    MetaCache meta_;
    Cycle decodeLatency_;
    FlatMap<u16> check_;
};

} // namespace cop

#endif // COP_MEM_COPER_NAIVE_CONTROLLER_HPP
