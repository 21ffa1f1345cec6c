/**
 * @file
 * CopErController: COP-ER, the hybrid that extends protection to
 * incompressible blocks (paper Section 3.3, Figures 6-7). Compressible
 * blocks behave exactly as under COP; incompressible blocks displace 34
 * bits into a pointer-indexed ECC-region entry, with entry allocation
 * steered away from aliases, entry reuse driven by the LLC's
 * "was uncompressed" bit, and the valid-bit tree charged as real DRAM
 * traffic.
 */

#ifndef COP_MEM_COPER_CONTROLLER_HPP
#define COP_MEM_COPER_CONTROLLER_HPP


#include "core/coper_codec.hpp"
#include "core/ecc_region.hpp"
#include "mem/cop_controller.hpp"
#include "mem/ecc_region_controller.hpp"
#include "mem/meta_cache.hpp"

namespace cop {

/** COP-ER statistics beyond the common MemStats. */
struct CopErStats
{
    u64 entryAllocs = 0;
    u64 entryReuses = 0;
    u64 entryFrees = 0;
    u64 deAliasRetries = 0;
    u64 pointerReads = 0; ///< Old-pointer fetches on writeback.
};

/** COP-ER memory controller (4-byte COP configuration). */
class CopErController : public MemoryController
{
  public:
    CopErController(DramSystem &dram, ContentSource content,
                    Cycle decode_latency = 4,
                    u64 meta_cache_bytes = 256 << 10,
                    EncodeMemo *memo = nullptr);

    const char *name() const override { return "COP-ER"; }
    MemWriteResult writeback(Addr addr, const CacheBlock &data, Cycle now,
                             bool was_uncompressed) override;

    /** Base instruments plus the ECC-region entry life cycle. */
    void registerStats(StatsRegistry &reg) const override;

    /**
     * Compressible blocks store 512 bits in place; incompressible ones
     * additionally expose their 46-bit ECC-region entry (34 displaced +
     * 11 check + 1 valid) to soft errors.
     */
    unsigned storedBits(Addr addr) const override;

    /** COP-ER never rejects: entry re-selection de-aliases (S3.3). */
    bool
    wouldAliasReject(const CacheBlock &data) const override
    {
        (void)data;
        return false;
    }

    void
    enableBandwidthMode(unsigned beat_floor) override
    {
        MemoryController::enableBandwidthMode(beat_floor);
        codec_.enableTransferSizing();
    }

    const CopCodec &codec() const { return codec_; }
    const EccRegion &region() const { return region_; }
    const CopErStats &erStats() const { return erStats_; }

    /**
     * Adaptive capacity (base enableAdaptiveCapacity(), no extra
     * setup): an ECC-entry block whose 11 entries all drain (every
     * covered block re-compressed) is released to the data free-list.
     * A later allocation landing in a released block demotes it: the
     * slot is reclaimed and the victim data living there is evicted
     * through the writeback machinery before the entry lands. Entry
     * payloads, the valid-bit tree, and the recovery pipeline are
     * untouched — placement and accounting only, so with the mode off
     * every image and timing stream is byte-identical.
     *
     * Is ECC-entry block @p entry_block currently released? (tests)
     */
    bool
    entryBlockReleased(u64 entry_block) const
    {
        return releasedEntryBlocks_.count(entry_block) != 0;
    }

    /**
     * ECC storage in use at high water, in bytes (entry blocks plus the
     * valid-bit tree).
     */
    u64
    storageBytesHighWater() const
    {
        return region_.storageBlocksHighWater() * kBlockBytes;
    }

    /** Distinct blocks ever stored uncompressed in DRAM. */
    u64
    everIncompressibleBlocks() const
    {
        return everIncompressible_.size();
    }

    /**
     * Figure 12's numerator: region bytes assuming an entry is kept for
     * every block that was ever incompressible (no deallocation).
     */
    u64
    storageBytesNoDealloc() const
    {
        return EccRegion::storageBlocksForEntries(
                   everIncompressible_.size()) *
               kBlockBytes;
    }

  protected:
    MemReadResult readImpl(Addr addr, Cycle now) override;
    void flipStoredBit(Addr addr, unsigned bit) override;

  private:
    /** DRAM block address of an ECC-region entry's block. */
    static Addr
    entryBlockAddr(u32 entry_index)
    {
        return memlayout::kMetaBase +
               (static_cast<Addr>(entry_index) /
                EccRegion::kEntriesPerBlock) *
                   kBlockBytes;
    }

    /** Charge the valid-bit tree traffic of the last region op. */
    void chargeTreeTouches(Cycle now);

    /** Access an entry block through the metadata cache. */
    Cycle entryAccess(u32 entry_index, Cycle now, bool dirty);

    /**
     * Build the stored image for an incompressible block: allocate (or
     * reuse) an entry, de-aliasing by re-selection when needed, and
     * populate it.
     */
    CacheBlock storeIncompressible(Addr addr, const CacheBlock &data,
                                   Cycle now, bool reuse_existing,
                                   u32 reuse_index);

    /** Extract the entry index embedded in a stored image. */
    u32 pointerOf(const CacheBlock &stored) const;

    /** Adaptive mode: release @p index's entry block if it drained. */
    void maybeReleaseEntryBlock(u32 index);
    /** Adaptive mode: demote @p index's entry block if released. */
    void maybeReclaimEntryBlock(u32 index, Cycle now);

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
    CoperCodec coper_;
    EccRegion region_;
    MetaCache meta_;
    Cycle decodeLatency_;
    CopErStats erStats_;
    u64 treeAddrSalt_ = 0;
    FlatSet everIncompressible_;
    /** Entry-block indices currently on the data free-list. */
    FlatSet releasedEntryBlocks_;
};

} // namespace cop

#endif // COP_MEM_COPER_CONTROLLER_HPP
