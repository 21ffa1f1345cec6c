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
 * baseline and optimised COP-ER (`figures ablation_naive_coper`).
 */

#ifndef COP_MEM_COPER_NAIVE_CONTROLLER_HPP
#define COP_MEM_COPER_NAIVE_CONTROLLER_HPP

#include "mem/cop_controller.hpp"
#include "mem/ecc_region_controller.hpp"
#include "mem/meta_cache.hpp"

namespace cop {

/** Naive COP-ER: COP compression + offset-addressed full ECC region. */
class CopErNaiveController : public CopController
{
  public:
    CopErNaiveController(DramSystem &dram, ContentSource content,
                         Cycle decode_latency = 4,
                         u64 meta_cache_bytes = 2ULL << 20,
                         EncodeCounter *encodes = nullptr);

    const char *name() const override { return "COP-ER (naive)"; }
    MemWriteResult writeback(Addr addr, const CacheBlock &data, Cycle now,
                             bool was_uncompressed) override;

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
    void
    flipStoredBit(Addr addr, unsigned bit) override
    {
        check_.flip(addr, imageOf(addr), bit);
    }
    void imageWritten(Addr addr) override { check_.erase(addr); }

  private:
    MetaCache meta_;
    WideCheckSidecar check_;
};

} // namespace cop

#endif // COP_MEM_COPER_NAIVE_CONTROLLER_HPP
