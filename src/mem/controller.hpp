/**
 * @file
 * Memory-controller models. One abstract interface, six implementations
 * matching the paper's Figure 10/11 configurations and its Section 3.3
 * ablation:
 *
 *  - UnprotectedController — plain non-ECC DIMM (perf + reliability
 *    baseline "Unprot.");
 *  - EccDimmController — conventional (72,64) SECDED ECC DIMM
 *    (reliability reference for the 6x comparison in Section 4); an
 *    UnprotectedController that logs and decodes its check bits;
 *  - EccRegionController — the paper's "ECC Reg." baseline: a
 *    Virtualized-ECC-style contiguous region with a 2-byte entry per
 *    data block and a wide (523,512) code (ecc_region_controller.hpp);
 *  - CopController — COP proper (compress + inline ECC, alias
 *    rejection; cop_controller.hpp);
 *  - CopErNaiveController — Section 3.3's naive COP-ER: a CopController
 *    whose raw blocks find wide-code check bits at a fixed offset in a
 *    full-size region (coper_naive_controller.hpp);
 *  - CopErController — COP-ER: a CopController whose raw blocks point
 *    to entries of a dynamically allocated ECC region
 *    (coper_controller.hpp).
 *
 * Shared pieces live in one place each: this base holds the DRAM
 * channel, how each block is stored, the image side table, the
 * metadata-cache fetch (metaFetch) and the recovery pipeline;
 * CopController holds the codec, the first-touch encode, the fill of a
 * stored block (decoded, or served from its recorded status) and the
 * write counters; WideCheckSidecar
 * (ecc_region_controller.hpp) holds the (523,512) check bits of raw
 * blocks under fault injection.
 *
 * Controllers are also the reliability observation point: every read
 * from DRAM logs (protection class, residency time) pairs that the
 * PARMA-style model in src/reliability converts into error rates.
 *
 * Error recovery: `read()` is a non-virtual pipeline around the
 * variant-specific `readImpl()`. With fault injection enabled
 * (enableFaultInjection), the pipeline turns decode outcomes into
 * recovery actions: corrected errors are written back clean
 * (scrub-on-read), detected-uncorrectable fills go through a bounded
 * read-retry and are then reloaded from the next level, and pages
 * that keep producing uncorrectable errors are retired. A patrol
 * scrubber (driven by reliability/live_injector) walks the stored
 * images through the same machinery. All of it is a no-op when
 * injection is disabled, and then no controller keeps an image: a
 * block's record holds how it is stored and the content version it was
 * stored at, and a fill returns functional memory's content (DESIGN.md
 * section 5). Images live in a side table only fault injection writes.
 */

#ifndef COP_MEM_CONTROLLER_HPP
#define COP_MEM_CONTROLLER_HPP

#include <algorithm>
#include <functional>
#include <vector>

#include "common/block_state.hpp"
#include "common/cache_block.hpp"
#include "common/flat_map.hpp"
#include "dram/dram_system.hpp"
#include "mem/error_log.hpp"
#include "mem/vuln_log.hpp"

namespace cop {

class MetaCache;

/** Result of a block read from main memory. */
struct MemReadResult
{
    /** Cycle the decoded data is available to the LLC. */
    Cycle complete = 0;
    /** Decoded application data. */
    CacheBlock data;
    /** Block was stored uncompressed (drives the LLC COP-ER bit). */
    bool wasUncompressed = false;
    /**
     * First touch of a block whose content is an incompressible alias:
     * the block can never have been in DRAM, so the LLC must pin it
     * immediately (vanishingly rare; correctness only).
     */
    bool aliasPinned = false;
    /** DRAM accesses this read performed (data + any metadata). */
    unsigned dramAccesses = 0;
    /** The decoder detected an uncorrectable error. */
    bool detectedUncorrectable = false;
    /** The decoder corrected an error in the stored image. */
    bool correctedError = false;
    /** The stored image carried injected faults when read. */
    bool faultedBlock = false;
    /** Protection class this fill was logged under. */
    VulnClass fillClass = VulnClass::Unprotected;
    /**
     * Content version of the DRAM copy the fill read. A fault-free fill
     * returns functional memory's current content, so the System's
     * oracle checks this against the block's current version instead.
     */
    u32 storedVersion = 0;
    /** Read retries the recovery pipeline spent on this fill. */
    unsigned retries = 0;
};

/** Result of a writeback to main memory. */
struct MemWriteResult
{
    Cycle complete = 0;
    /**
     * The block is an incompressible alias and was NOT written; the LLC
     * must keep the line with its alias bit set (paper Section 3.1).
     */
    bool aliasRejected = false;
    unsigned dramAccesses = 0;
};

/** Aggregate controller statistics. */
struct MemStats
{
    u64 reads = 0;
    u64 writes = 0;
    u64 protectedWrites = 0;   ///< Compressed + inline ECC.
    u64 unprotectedWrites = 0; ///< Raw (incompressible).
    u64 aliasRejects = 0;
    u64 metaReads = 0;  ///< ECC-region / tree DRAM reads.
    u64 metaWrites = 0; ///< ECC-region / tree DRAM writes.
    u64 metaCacheHits = 0;
    u64 metaCacheMisses = 0;
    std::array<u64, 3> schemeWrites{}; ///< Per SchemeId (MSB/RLE/TXT).
    // Codec perf counters (filled from the System's EncodeCounter;
    // zero for controllers that never run the COP encoder).
    u64 encodeCalls = 0;  ///< CopCodec::encode calls.
    u64 schemeTrials = 0; ///< Scheme admission checks across encodes.
    /** Compatibility name (copbench assigns it); always 0, not reported. */
    u64 encodeMemoHits = 0;
};

/**
 * Abstract memory controller. Subclasses implement the encode/decode
 * policy; this base supplies the DRAM channel, the stored-block
 * functional state, first-touch initialisation, vulnerability logging,
 * and the fault-injection / error-recovery pipeline.
 */
class MemoryController
{
  public:
    /**
     * Supplies the initial (pre-trace) content of any block from
     * functional memory. Returns a reference (valid until the next
     * source invocation) so the per-read hot path does not copy a
     * whole block; callees that keep the content must copy it. It must
     * not insert into the controller's block table: the controller
     * calls it while holding the block's record.
     */
    using ContentSource = std::function<const CacheBlock &(Addr)>;

    MemoryController(DramSystem &dram, ContentSource content);
    virtual ~MemoryController() = default;

    MemoryController(const MemoryController &) = delete;
    MemoryController &operator=(const MemoryController &) = delete;

    virtual const char *name() const = 0;

    /**
     * Read one block (LLC miss fill). Non-virtual: wraps the variant's
     * readImpl() with the detection/recovery pipeline when fault
     * injection is enabled.
     */
    MemReadResult read(Addr addr, Cycle now);

    /**
     * Write one block back (dirty LLC eviction).
     * @param was_uncompressed the LLC's COP-ER state bit for the line.
     */
    virtual MemWriteResult writeback(Addr addr, const CacheBlock &data,
                                     Cycle now,
                                     bool was_uncompressed = false) = 0;

    /**
     * Would this content be rejected as an incompressible alias? Used
     * by the LLC victim filter before it commits to an eviction.
     */
    virtual bool
    wouldAliasReject(const CacheBlock &data) const
    {
        (void)data;
        return false;
    }

    /**
     * Register this controller's counters into @p reg under the "mem."
     * and "err." namespaces: fill/writeback/alias-reject rates,
     * metadata traffic and meta-cache hit rate, and the recovery
     * pipeline's event counters. Variants override to add their own
     * instruments (and must call the base).
     */
    virtual void registerStats(StatsRegistry &reg) const;

    /** Counters of the adaptive ECC-region capacity mode. */
    struct AdaptiveStats
    {
        u64 slotsReclaimed = 0;  ///< Region blocks released for data use.
        u64 demotions = 0;       ///< Released blocks reclaimed for ECC.
        u64 victimEvictions = 0; ///< Data victims evicted by a demotion.
        u64 releasedBlocks = 0;  ///< Currently-released region blocks.
        u64 releasedBlocksHighWater = 0;
    };

    /**
     * Arm the adaptive ECC-region capacity mode (Luo et al., arXiv
     * 1706.08870): controllers that keep an ECC region release region
     * blocks whose protected data is fully compressible (the check
     * bits ride inline in the freed compression slack) back to the
     * data free-list, and demote — reclaim the block, evicting the
     * victim data through the writeback machinery — when protected
     * data turns incompressible. Placement and accounting only: the
     * stored images, the decode paths, and the PR 2 recovery pipeline
     * are untouched, so runs with the mode off stay byte-identical.
     * Controllers without a region accept the call but never reclaim.
     */
    virtual void enableAdaptiveCapacity() { adaptiveMode_ = true; }
    bool adaptiveCapacityEnabled() const { return adaptiveMode_; }
    const AdaptiveStats &adaptiveStats() const { return adaptive_; }

    DramSystem &dram() { return dram_; }
    const MemStats &stats() const { return stats_; }
    const VulnLog &vulnLog() const { return vuln_; }
    VulnLog &vulnLog() { return vuln_; }

    /**
     * Direct access to the stored DRAM image (fault injection); null
     * for a block that is not stored, or is stored without its image
     * (always so with fault injection off).
     */
    CacheBlock *
    imageOf(Addr addr)
    {
        const auto it = images_.find(addr);
        return it == images_.end() ? nullptr : &it->second;
    }
    const CacheBlock *
    imageOf(Addr addr) const
    {
        return const_cast<MemoryController *>(this)->imageOf(addr);
    }
    /**
     * Distinct blocks stored in DRAM, with or without their image
     * (touched footprint).
     */
    u64 imageBlockCount() const { return storedBlocks_; }
    /** Images in the side table (0 unless fault injection is on). */
    u64 sideTableImages() const { return images_.size(); }

    /**
     * Keep how blocks are stored, write times and transfer sizes in
     * @p table (a System's shared per-block table); call before the
     * first access.
     */
    void shareBlockTable(BlockTable &table) { blocks_.share(table); }

    /**
     * Pre-size the block table for an expected touched footprint of
     * @p blocks. Purely an allocation hint; the image side table and
     * the check sidecars start empty because only fault injection
     * fills them.
     */
    void reserveFootprint(u64 blocks) { blocks_->reserve(blocks); }

    // --- fault injection and error recovery ----------------------------

    /**
     * Arm the recovery pipeline; must precede any injectFault call.
     * Fatal once any block was stored (setStored keeps no image):
     * there would be nothing to strike or decode.
     */
    void enableFaultInjection(const RecoveryConfig &cfg);
    bool faultInjectionEnabled() const { return fault_.enabled; }

    const ErrorLog &errorLog() const { return fault_.log; }
    ErrorLog &errorLog() { return fault_.log; }

    /**
     * Stored bits a soft error can strike for this block: 512 data
     * bits plus any per-block redundancy the variant stores (SECDED
     * check bits, wide-code sidecar, COP-ER entry). Variants override.
     */
    virtual unsigned
    storedBits(Addr addr) const
    {
        (void)addr;
        return kBlockBits;
    }

    /**
     * Flip @p bits (indices below storedBits(addr)) in the stored
     * image of @p addr. @p persistent registers the bits as stuck:
     * they are re-applied whenever the image is rewritten, until the
     * page is retired. Returns false if nothing was applied (no image
     * yet, or the page is retired).
     */
    bool injectFault(Addr addr, const std::vector<unsigned> &bits,
                     Cycle now, bool persistent);

    /** Has the page holding @p addr been retired? */
    bool pageRetired(Addr addr) const;

    /**
     * Patrol-scrub one block: read it through the variant decode path
     * (charging DRAM bandwidth as scrub traffic), repair what it can,
     * and reset the block's vulnerability clock where architecturally
     * justified.
     */
    void patrolScrub(Addr addr, Cycle now);

    /** Sorted snapshot of every block with a stored image. */
    std::vector<Addr> imageAddressesSorted() const;

    /**
     * SDC oracle hook (called by System when a fill mismatches the
     * functional truth without a raised error): count the silent
     * corruption, once per faulting event.
     */
    void noteSilentFill(Addr addr, VulnClass cls, Cycle now);
    /** Oracle hook: faulted block read back correct with no ECC action. */
    void noteBenignFill(Addr addr, VulnClass cls, Cycle now);

  protected:
    /** Who is driving the DRAM channel (for traffic attribution). */
    enum class OpMode : u8
    {
        Demand, ///< LLC miss fill / eviction.
        Retry,  ///< Recovery pipeline re-reading a DUE block.
        Scrub,  ///< Patrol scrubber.
    };

    /** Variant-specific decode path behind read(). */
    virtual MemReadResult readImpl(Addr addr, Cycle now) = 0;

    /**
     * Flip one stored bit. The default handles the 512 data bits of
     * the stored image; variants with out-of-block redundancy (check
     * sidecars, COP-ER entries) override for indices >= 512.
     */
    virtual void flipStoredBit(Addr addr, unsigned bit);

    /**
     * Store a block: its @p image under fault injection (setImage),
     * else only @p how it is stored (setStored).
     */
    void
    store(Addr addr, Stored how, const CacheBlock &image)
    {
        if (fault_.enabled)
            setImage(addr, image);
        else
            setStored(addr, how);
    }

    /**
     * Hook after setImage stores a clean image — variants drop any
     * derived fault-model state (check-bit sidecars) here.
     */
    virtual void
    imageWritten(Addr addr)
    {
        (void)addr;
    }

    /** Schedule a DRAM read of @p addr; bumps stats. */
    Cycle dramRead(Addr addr, Cycle now);
    /** Schedule a DRAM write of @p addr; bumps stats. */
    Cycle dramWrite(Addr addr, Cycle now);

    /**
     * Access the metadata block at @p meta_addr through @p meta: a hit
     * is on chip at @p now; a miss writes back any dirty victim and
     * reads the block from DRAM. Returns when the metadata is on chip.
     */
    Cycle metaFetch(MetaCache &meta, Addr meta_addr, Cycle now, bool dirty);

    /**
     * Functional memory's current content of a block (reference into
     * the pool; valid until the next content lookup): the initial
     * content on first touch, the truth recovery restores, and the data
     * of a fault-free fill, since a clean copy stored at the block's
     * current version holds exactly that.
     */
    const CacheBlock &content(Addr addr) const { return content_(addr); }

    /**
     * The stored bits of a block the store-it-verbatim schemes keep,
     * storing the initial application content on first touch (COP
     * variants initialise through their encoder instead): the image
     * under fault injection, else functional memory's content. Sets
     * @p result.storedVersion. Valid until the next content lookup or
     * image insert.
     */
    const CacheBlock &storedImage(Addr addr, MemReadResult &result);

    /** The block's record, or null if it has none. */
    const BlockState *
    findRecord(Addr addr) const
    {
        const auto it = blocks_->find(addr);
        return it == blocks_->end() ? nullptr : &it->second;
    }

    /** How @p addr is stored. */
    Stored
    storedAs(Addr addr) const
    {
        const BlockState *rec = findRecord(addr);
        return rec == nullptr ? Stored::Nothing : rec->stored;
    }

    /** Record a read-from-DRAM reliability observation. */
    void logVuln(VulnClass cls, Addr addr, Cycle now);
    /** Record a write (resets the vulnerability clock). */
    void noteWrite(Addr addr, Cycle now) { record(addr).lastWrite = now; }

    /** The block's record, created on first use. */
    BlockState &record(Addr addr) { return (*blocks_)[addr]; }

    /** Is the stored image of @p addr carrying injected faults? */
    bool
    isFaulted(Addr addr) const
    {
        return fault_.enabled && fault_.faulted.count(addr) != 0;
    }

    /** Adaptive mode: one region block released to the data free-list. */
    void
    noteSlotReclaimed()
    {
        ++adaptive_.slotsReclaimed;
        ++adaptive_.releasedBlocks;
        adaptive_.releasedBlocksHighWater = std::max(
            adaptive_.releasedBlocksHighWater, adaptive_.releasedBlocks);
    }

    /** Adaptive mode: a released block reclaimed, its data evicted. */
    void
    noteDemotion()
    {
        COP_ASSERT(adaptive_.releasedBlocks > 0);
        ++adaptive_.demotions;
        ++adaptive_.victimEvictions;
        --adaptive_.releasedBlocks;
    }

    bool adaptiveMode_ = false;

    DramSystem &dram_;
    ContentSource content_;
    MemStats stats_;
    VulnLog vuln_;
    OpMode opMode_ = OpMode::Demand;

  private:
    /** Live fault-injection state (all dormant unless enabled). */
    struct FaultState
    {
        bool enabled = false;
        RecoveryConfig cfg;
        ErrorLog log;
        /** Blocks whose stored image currently carries faults. */
        FlatSet faulted;
        /** Silent corruptions already counted (image still wrong). */
        FlatSet silentKnown;
        /** Stuck bits re-applied on every image rewrite. */
        FlatMap<std::vector<unsigned>> stuck;
        /** Retired page base addresses. */
        FlatSet retired;
        /** Uncorrectable-error count per page base. */
        FlatMap<unsigned> pageDue;
    };

    /**
     * Overwrite the stored image (fault injection only); returns it as
     * stored, stuck bits applied (valid until the next image insert).
     */
    const CacheBlock &setImage(Addr addr, const CacheBlock &stored);

    /**
     * Store a block without its image (fault injection off): the
     * record keeps only how it is stored (@p how, Stored::Protected or
     * Stored::Raw) and its current version as storedVersion, since the
     * clean copy is the content at that version. Counts towards
     * imageBlockCount().
     */
    void setStored(Addr addr, Stored how);

    /**
     * Mark @p rec stored as @p how at its current version, counting a
     * newly stored block.
     */
    void
    markStored(BlockState &rec, Stored how)
    {
        if (rec.stored == Stored::Nothing)
            ++storedBlocks_;
        rec.stored = how;
        rec.storedVersion = rec.version;
    }

    Addr pageBase(Addr addr) const;
    /** Re-apply registered stuck bits after an image rewrite. */
    void applyStuckBits(Addr addr);
    /**
     * Settle a demand or patrol-scrub decode @p r that raised an error:
     * book a DUE and repair it with recoverDetected, or book a
     * correction and write the repaired image back (a miscorrection is
     * written back too, with the block kept marked faulted).
     */
    void settleDecodeError(Addr addr, Cycle now, const MemReadResult &r);
    /** Repair a DUE block: retire-if-due, then rewrite from truth. */
    void recoverDetected(Addr addr, Cycle now, bool was_uncompressed);
    /** writeback() for recovery, handling the alias-reject edge. */
    void recoveryWriteback(Addr addr, const CacheBlock &data, Cycle now,
                           bool was_uncompressed);

    /**
     * Per-block records: how each block is stored and at which
     * version, and write times (metadata addresses, the
     * memlayout::kMetaBase / kTreeBase spaces, never get one).
     */
    BlockTableRef blocks_;
    /**
     * The image side table: the stored bits of every block whose
     * record says Stored::Image. Only fault injection writes it.
     */
    FlatMap<CacheBlock> images_;
    /** Records whose block is stored (Stored other than Nothing). */
    u64 storedBlocks_ = 0;
    FaultState fault_;
    AdaptiveStats adaptive_;
    /** Class of the most recent readImpl fill (set by logVuln). */
    VulnClass lastFillClass_ = VulnClass::Unprotected;
};

/** Plain non-ECC DIMM: no protection, no overheads. */
class UnprotectedController : public MemoryController
{
  public:
    using MemoryController::MemoryController;

    const char *name() const override { return "Unprot."; }
    MemWriteResult writeback(Addr addr, const CacheBlock &data, Cycle now,
                             bool was_uncompressed) override;

  protected:
    MemReadResult readImpl(Addr addr, Cycle now) override;
};

/**
 * Conventional ECC DIMM: (72,64) SECDED on a 9th chip. Identical timing
 * to the unprotected case (check bits travel with the data), so it
 * stores writebacks the same way; differs only in the reliability
 * class it logs. Under fault injection the 64 check bits are modelled
 * as a per-block sidecar so soft errors can strike them too.
 */
class EccDimmController : public UnprotectedController
{
  public:
    using UnprotectedController::UnprotectedController;

    const char *name() const override { return "ECC DIMM"; }

    /** 8 x (72,64): 512 data bits + 64 check bits. */
    unsigned
    storedBits(Addr addr) const override
    {
        (void)addr;
        return 576;
    }

  protected:
    MemReadResult readImpl(Addr addr, Cycle now) override;
    void flipStoredBit(Addr addr, unsigned bit) override;
    void imageWritten(Addr addr) override { check_.erase(addr); }

  private:
    /** Lazily materialised (72,64) check bytes, one per 64-bit word. */
    std::array<u8, 8> &checkBytes(Addr addr);

    FlatMap<std::array<u8, 8>> check_;
};

} // namespace cop

#endif // COP_MEM_CONTROLLER_HPP
