/**
 * @file
 * LiveInjector: soft-error arrivals over simulated time, applied to
 * the stored DRAM images of a running System's memory controller.
 *
 * Two sources of faults:
 *  - a Poisson process (exponential inter-arrival gaps derived from a
 *    configurable event rate, itself derivable from a FIT rate and the
 *    resident footprint) striking uniformly-random stored bits of
 *    uniformly-random footprint blocks;
 *  - a deterministic campaign script ("flip these bits in block X at
 *    cycle C", optionally persistent/stuck) for tests and targeted
 *    experiments.
 *
 * The injector also drives the patrol scrubber: when
 * FaultConfig::scrubIntervalCycles is nonzero, it walks the stored
 * images (a sorted snapshot, refreshed once per pass) at a per-block
 * stride of interval / images, calling MemoryController::patrolScrub
 * so every touched block is verified roughly once per interval — and
 * the scrub reads/writes are charged to the DRAM timing model.
 *
 * Everything is deterministic for a fixed (seed, seed_salt), which the
 * parallel experiment runner relies on for byte-identical output.
 */

#ifndef COP_RELIABILITY_LIVE_INJECTOR_HPP
#define COP_RELIABILITY_LIVE_INJECTOR_HPP

#include <vector>

#include "common/rng.hpp"
#include "mem/controller.hpp"

namespace cop {

/** One scripted fault of a campaign. */
struct PlannedFault
{
    /** Simulated cycle at (or after) which the fault strikes. */
    Cycle cycle = 0;
    /** Block address (data-region byte address). */
    Addr addr = 0;
    /** Stored-bit indices to flip (below storedBits(addr)). */
    std::vector<unsigned> bits;
    /** Stuck-at fault: re-applied whenever the image is rewritten. */
    bool persistent = false;

    bool operator==(const PlannedFault &) const = default;
};

/** Live fault-injection configuration (SystemConfig::fault). */
struct FaultConfig
{
    bool enabled = false;
    /** Poisson fault-event rate, events per 10^6 simulated cycles. */
    double eventsPerMegacycle = 0.0;
    /** Bits flipped per Poisson event (within one block). */
    unsigned flipsPerEvent = 1;
    /**
     * Model per-chip on-die SEC beneath the rank-level scheme: Poisson
     * events are drawn over the *extended* geometry (stored bits plus
     * 8 hidden check bits per 128-bit on-die word) and run through the
     * OndieEcc filter; only the post-filter pattern reaches the stored
     * image. Campaign faults bypass the filter by design — their bit
     * lists are already post-on-die arrival patterns. Off by default;
     * when off, the raw-arrival draw stream is byte-identical to
     * builds without the on-die layer.
     */
    bool ondieEcc = false;
    /** Injector RNG seed (combined with the System's seed salt). */
    u64 seed = 0xFA157;
    /** Patrol-scrub full-pass interval; 0 disables the scrubber. */
    Cycle scrubIntervalCycles = 0;
    /** Recovery-pipeline policy. */
    RecoveryConfig recovery;
    /** Scripted faults, applied in cycle order. */
    std::vector<PlannedFault> campaign;

    bool operator==(const FaultConfig &) const = default;
};

/** Drives fault arrivals and the patrol scrubber for one System. */
class LiveInjector
{
  public:
    /**
     * @param footprint_bytes application-data bytes faults can strike
     *        (the workload's touched regions, not all of DRAM).
     * @param seed_salt per-System salt (the runner's per-cell salt) so
     *        grid cells draw independent arrival streams.
     */
    LiveInjector(const FaultConfig &cfg, MemoryController &ctl,
                 u64 footprint_bytes, u64 seed_salt);

    /**
     * Process every fault arrival and scrub step scheduled at or
     * before @p now. Called by System::run with the (non-decreasing)
     * clock of the core about to execute, so DRAM requests issued
     * here respect the channel's arrival-order requirement.
     */
    void advanceTo(Cycle now);

  private:
    static constexpr Cycle kNever = ~0ULL;

    void poissonEvent(Cycle now);
    void scrubStep(Cycle now);
    Cycle poissonGap();

    FaultConfig cfg_;
    MemoryController &ctl_;
    u64 footprintBlocks_;
    Rng rng_;
    std::vector<PlannedFault> campaign_; ///< Sorted by cycle.
    size_t campaignIdx_ = 0;
    Cycle nextPoisson_ = kNever;
    Cycle nextScrub_ = kNever;
    std::vector<Addr> scrubList_;
    size_t scrubIdx_ = 0;
};

} // namespace cop

#endif // COP_RELIABILITY_LIVE_INJECTOR_HPP
