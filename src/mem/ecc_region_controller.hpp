/**
 * @file
 * The paper's "ECC Reg." baseline (Section 4): a Virtualized-ECC-style
 * design that reserves a contiguous region with a 2-byte entry per data
 * block (11 check bits of a (523,512) code plus padding to simplify
 * addressing — "the contiguous ECC region is allocated with a 2-byte
 * entry per data block to facilitate addressing"). Every fill needs the
 * matching ECC block; every writeback dirties it. ECC blocks are cached.
 */

#ifndef COP_MEM_ECC_REGION_CONTROLLER_HPP
#define COP_MEM_ECC_REGION_CONTROLLER_HPP

#include <memory>

#include "compress/combined.hpp"
#include "mem/controller.hpp"
#include "mem/meta_cache.hpp"

namespace cop {

/** Address-space constants for metadata regions. */
namespace memlayout {

/** Base of the ECC / metadata region (disjoint from application data). */
inline constexpr Addr kMetaBase = 1ULL << 40;
/** Base of the COP-ER valid-bit tree blocks. */
inline constexpr Addr kTreeBase = 1ULL << 41;

/** ECC-region baseline: 2-byte entry per block, 32 entries per block. */
inline Addr
eccRegionEntryAddr(Addr data_addr)
{
    const u64 block_index = data_addr / kBlockBytes;
    return kMetaBase + (block_index / 32) * kBlockBytes;
}

} // namespace memlayout

/**
 * The 11 check bits of the wide (523,512) code over blocks stored as
 * plain data, kept per block for fault injection as stored bits
 * 512-522. Built lazily: a block's bits are computed from its image
 * before the first flip lands, so they match the clean data; the
 * owner drops them whenever the image is rewritten.
 */
class WideCheckSidecar
{
  public:
    /** Flip stored bit @p bit (below kBlockBits + 11) of @p image. */
    void flip(Addr addr, CacheBlock *image, unsigned bit);

    /**
     * Run the wide code over @p result.data (the stored block) against
     * the check bits of @p addr, correcting it in place.
     */
    void correct(Addr addr, MemReadResult &result);

    /** The image of @p addr was rewritten clean. */
    void erase(Addr addr) { check_.erase(addr); }

  private:
    /** Check bits of @p addr, computed from @p image on first use. */
    u16 &of(Addr addr, const CacheBlock &image);

    FlatMap<u16> check_;
};

/** The ECC-region ("Virtualized ECC"-like) baseline controller. */
class EccRegionController : public MemoryController
{
  public:
    EccRegionController(DramSystem &dram, ContentSource content,
                        u64 meta_cache_bytes = 256 << 10);

    const char *name() const override { return "ECC Reg."; }
    MemWriteResult writeback(Addr addr, const CacheBlock &data, Cycle now,
                             bool was_uncompressed) override;

    /**
     * Adaptive capacity: an entry group (one region block, 32 entries
     * covering 2 KiB of data) whose touched blocks are all
     * compressible carries its 11 check bits inline in the freed
     * compression slack, so the region block is released to the data
     * free-list (no metadata traffic for the group either). A block
     * turning incompressible demotes the group: the slot is reclaimed
     * and the victim data evicted through the writeback machinery.
     * The stored images, check sidecar, and wide-code decode path are
     * untouched — placement and accounting only — so the recovery
     * pipeline on top is unchanged.
     */
    void enableAdaptiveCapacity() override;

    /** Is @p data_addr's entry group currently released? (tests) */
    bool groupReleased(Addr data_addr) const;

    /** 512 data bits + 11 wide-code check bits in the ECC region. */
    unsigned
    storedBits(Addr addr) const override
    {
        (void)addr;
        return kBlockBits + 11;
    }

    /**
     * Bytes of ECC storage the baseline reserves for a footprint of
     * @p blocks data blocks (2 bytes per block) — Figure 12's
     * denominator.
     */
    static u64
    storageBytesFor(u64 blocks)
    {
        return blocks * 2;
    }

  protected:
    MemReadResult readImpl(Addr addr, Cycle now) override;
    void
    flipStoredBit(Addr addr, unsigned bit) override
    {
        check_.flip(addr, imageOf(addr), bit);
    }
    void imageWritten(Addr addr) override { check_.erase(addr); }

  private:
    /** Per-entry-group adaptive state (keyed by region-block address). */
    struct GroupState
    {
        u32 touched = 0;        ///< Distinct data blocks seen.
        u32 incompressible = 0; ///< Of those, currently incompressible.
        bool released = false;  ///< Region block on the data free-list.
    };

    /** Adaptive mode: reclassify @p data, promote/demote its group. */
    void noteBlockContent(Addr addr, const CacheBlock &data, Cycle now);

    MetaCache meta_;
    WideCheckSidecar check_;
    /** Compressibility probe (COP 4-byte config), adaptive mode only. */
    std::unique_ptr<CombinedCompressor> adaptComp_;
    FlatMap<u8> blockCompressible_; ///< Data addr -> last verdict.
    FlatMap<GroupState> groups_;    ///< Region-block addr -> state.
};

} // namespace cop

#endif // COP_MEM_ECC_REGION_CONTROLLER_HPP
