/**
 * @file
 * Memory-controller models. One abstract interface, five implementations
 * matching the paper's Figure 10/11 configurations:
 *
 *  - UnprotectedController — plain non-ECC DIMM (perf + reliability
 *    baseline "Unprot.");
 *  - EccDimmController — conventional (72,64) SECDED ECC DIMM
 *    (reliability reference for the 6x comparison in Section 4);
 *  - EccRegionController — the paper's "ECC Reg." baseline: a
 *    Virtualized-ECC-style contiguous region with a 2-byte entry per
 *    data block and a wide (523,512) code;
 *  - CopController — COP proper (compress + inline ECC, alias
 *    rejection);
 *  - CopErController — COP-ER (COP plus the pointer-indexed ECC region
 *    for incompressible blocks). Lives in coper_controller.hpp.
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
 * images through the same machinery. All of it is a no-op — and the
 * stored images are bit-identical — when injection is disabled.
 */

#ifndef COP_MEM_CONTROLLER_HPP
#define COP_MEM_CONTROLLER_HPP

#include <algorithm>
#include <functional>
#include <vector>

#include "common/cache_block.hpp"
#include "common/flat_map.hpp"
#include "dram/dram_system.hpp"
#include "mem/error_log.hpp"
#include "mem/vuln_log.hpp"

namespace cop {

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
    // Codec perf counters (filled from the System's EncodeMemo; zero
    // for controllers that never run the COP encoder).
    u64 encodeCalls = 0;    ///< CopCodec::encode requests (memoized or not).
    u64 encodeMemoHits = 0; ///< Requests served from the encode memo.
    u64 schemeTrials = 0;   ///< Scheme admission checks across encodes.
};

/**
 * Abstract memory controller. Subclasses implement the encode/decode
 * policy; this base supplies the DRAM channel, the stored-image
 * functional state, first-touch initialisation, vulnerability logging,
 * and the fault-injection / error-recovery pipeline.
 */
class MemoryController
{
  public:
    /** Supplies the initial (pre-trace) content of any block. */
    /**
     * Functional-memory lookup. Returns a reference (valid until the
     * next source invocation) so the per-read hot path does not copy a
     * whole block; callees that keep the content must copy it.
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

    /**
     * Arm the CRAM-style bandwidth-compression mode: data-block
     * transfers whose recorded compressed size fits fewer bus beats
     * ship in shortened bursts. @p beat_floor (1..8) is the smallest
     * burst any transfer may shrink to; a floor of 8 keeps every burst
     * full-length (the mode's machinery runs but timing is identical
     * to the mode being off — the byte-identity lever the tests use).
     *
     * Variants that run a COP codec override to also arm per-encode
     * transfer sizing; controllers without compression accept the call
     * but never shorten anything.
     */
    virtual void
    enableBandwidthMode(unsigned beat_floor)
    {
        COP_ASSERT(beat_floor >= 1 && beat_floor <= 8);
        bwMode_ = true;
        bwBeatFloor_ = beat_floor;
    }
    bool bandwidthModeEnabled() const { return bwMode_; }

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

    /** Direct access to the stored DRAM image (fault injection). */
    CacheBlock *imageOf(Addr addr);
    /**
     * Overwrite the stored image (fault injection); returns it as
     * stored, stuck bits applied (valid until the next image insert).
     */
    const CacheBlock &setImage(Addr addr, const CacheBlock &stored);
    /** Distinct blocks with a stored image (touched footprint). */
    u64 imageBlockCount() const { return image_.size(); }
    /** Allocated image hash slots (load-factor observability). */
    u64 imageSlotCount() const { return image_.capacity(); }

    /**
     * Pre-size the stored-image and write-timestamp maps for an
     * expected touched footprint of @p blocks. Purely an allocation
     * hint; the check sidecars start empty because they only hold
     * faulted blocks.
     */
    void
    reserveFootprint(u64 blocks)
    {
        image_.reserve(blocks);
        lastWrite_.reserve(blocks);
    }

    // --- fault injection and error recovery ----------------------------

    /** Arm the recovery pipeline; must precede any injectFault call. */
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
     * Flip one stored bit. The default handles the 512 data bits in
     * image_; variants with out-of-block redundancy (check sidecars,
     * COP-ER entries) override for indices >= 512.
     */
    virtual void flipStoredBit(Addr addr, unsigned bit);

    /**
     * Hook after setImage stores a clean image — variants drop any
     * derived fault-model state (check-bit sidecars) here.
     */
    virtual void
    imageWritten(Addr addr)
    {
        (void)addr;
    }

    /**
     * Does a patrol-scrub visit reset this block's vulnerability
     * clock? Mirrors the analytic model: scrubbing helps protected
     * classes only (an unprotected block cannot be verified, and a
     * raw COP block has no code to check).
     */
    virtual bool
    scrubResetsClock(const MemReadResult &r) const
    {
        (void)r;
        return true;
    }

    /** Schedule a DRAM read of @p addr; bumps stats. */
    Cycle dramRead(Addr addr, Cycle now);
    /** Schedule a DRAM write of @p addr; bumps stats. */
    Cycle dramWrite(Addr addr, Cycle now);

    /**
     * Record that the stored image of @p addr carries @p bits of
     * information (compressed data + check bits), so its bus transfers
     * may shorten to ceil(bits / 64) beats, clamped to the configured
     * beat floor. Pass kBlockBits (or more) to restore the full-burst
     * default. No-op when the bandwidth mode is off. Call at every
     * image-store site *before* the DRAM access that ships the block.
     */
    void noteTransferBits(Addr addr, unsigned bits);

    /** Beats the data transfer of @p addr occupies (8 unless shortened). */
    unsigned
    transferBeats(Addr addr) const
    {
        if (!bwMode_)
            return 8;
        const auto it = xferBeats_.find(addr);
        return it == xferBeats_.end() ? 8 : it->second;
    }

    /**
     * Initial application content of a block (reference into the
     * functional-memory pool; valid until the next content lookup).
     */
    const CacheBlock &initialContent(Addr addr) const
    {
        return content_(addr);
    }

    /**
     * Fetch the stored image, initialising it on first touch with the
     * raw application content (the store-it-verbatim schemes; COP
     * variants initialise through their encoder and setImage instead).
     */
    const CacheBlock &storedImage(Addr addr);

    /** Record a read-from-DRAM reliability observation. */
    void logVuln(VulnClass cls, Addr addr, Cycle now);
    /** Record a write (resets the vulnerability clock). */
    void noteWrite(Addr addr, Cycle now);

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
    FlatMap<CacheBlock> image_;
    FlatMap<Cycle> lastWrite_;
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

    Addr pageBase(Addr addr) const;
    /** Re-apply registered stuck bits after an image rewrite. */
    void applyStuckBits(Addr addr);
    /** Repair a DUE block: retire-if-due, then rewrite from truth. */
    void recoverDetected(Addr addr, Cycle now, bool was_uncompressed);
    /** writeback() for recovery, handling the alias-reject edge. */
    void recoveryWriteback(Addr addr, const CacheBlock &data, Cycle now,
                           bool was_uncompressed);

    FaultState fault_;
    AdaptiveStats adaptive_;
    /** Class of the most recent readImpl fill (set by logVuln). */
    VulnClass lastFillClass_ = VulnClass::Unprotected;

    // --- bandwidth-compression mode state -----------------------------
    bool bwMode_ = false;
    unsigned bwBeatFloor_ = 8;
    /**
     * Shortened-transfer sidecar: data-block address -> burst beats.
     * Only sub-8-beat entries are stored (full bursts stay absent), and
     * metadata addresses (memlayout::kMetaBase / kTreeBase spaces) are
     * never recorded, so their transfers default to 8 beats.
     */
    FlatMap<u8> xferBeats_;
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

    bool
    scrubResetsClock(const MemReadResult &) const override
    {
        return false; // no code to check: scrubbing cannot help
    }
};

/**
 * Conventional ECC DIMM: (72,64) SECDED on a 9th chip. Identical timing
 * to the unprotected case (check bits travel with the data); differs
 * only in the reliability class it logs. Under fault injection the
 * 64 check bits are modelled as a per-block sidecar so soft errors
 * can strike them too.
 */
class EccDimmController : public MemoryController
{
  public:
    using MemoryController::MemoryController;

    const char *name() const override { return "ECC DIMM"; }
    MemWriteResult writeback(Addr addr, const CacheBlock &data, Cycle now,
                             bool was_uncompressed) override;

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
