/**
 * @file
 * Error-recovery bookkeeping for live fault injection.
 *
 * The offline FaultInjector (src/reliability) measures per-block
 * outcome probabilities in isolation. When faults are injected into
 * the *live* simulation instead, every demand fill runs through the
 * controller's detection/recovery pipeline, and this log records what
 * happened: the per-class outcome of each observed error (benign /
 * corrected / detected / silent), the cost of recovery (read retries,
 * scrub-on-read writebacks, rewrites from the next level), page
 * retirements, and the patrol scrubber's traffic. `SystemResults`
 * carries a copy so benches can cross-validate the measured rates
 * against the analytic `ErrorRateModel`.
 */

#ifndef COP_MEM_ERROR_LOG_HPP
#define COP_MEM_ERROR_LOG_HPP

#include <array>
#include <vector>

#include "common/types.hpp"
#include "mem/vuln_log.hpp"

namespace cop {

/** What the recovery pipeline concluded about one observation. */
enum class ErrorEventKind : u8
{
    /** Faulted block read back with correct data and no ECC action. */
    Benign,
    /** ECC corrected the fill; the clean image was written back. */
    Corrected,
    /** Uncorrectable after retries; block reloaded from the next level. */
    Detected,
    /** Wrong data with no raised error (caught by the SDC oracle). */
    Silent,
    /** A page crossed the uncorrectable-error threshold. */
    PageRetired,
    /** The patrol scrubber corrected a block. */
    ScrubCorrected,
    /** The patrol scrubber hit an uncorrectable block. */
    ScrubDetected,
};

const char *errorEventKindName(ErrorEventKind kind);

/** One cycle-stamped record of a recovery-pipeline decision. */
struct ErrorEvent
{
    Cycle cycle = 0;
    Addr addr = 0;
    ErrorEventKind kind = ErrorEventKind::Benign;
    /** Protection class the block was read under. */
    VulnClass cls = VulnClass::Unprotected;
    /** Read retries spent before this outcome (Detected only). */
    unsigned retries = 0;
};

/** Demand-fill outcome counts for one protection class. */
struct ErrorOutcomeCounts
{
    u64 benign = 0;
    u64 corrected = 0;
    u64 detected = 0;
    u64 silent = 0;

    u64 total() const { return benign + corrected + detected + silent; }
};

/** Recovery-pipeline policy knobs. */
struct RecoveryConfig
{
    /** Re-reads of a detected-uncorrectable block before giving up. */
    unsigned maxReadRetries = 2;
    /** Uncorrectable errors on one page before it is retired. */
    unsigned retirePageThreshold = 3;
    /** Retirement granularity. */
    u64 pageBytes = 4096;

    bool operator==(const RecoveryConfig &) const = default;
};

/** Everything the recovery pipeline counted during a run. */
struct ErrorLog
{
    /** Event records are capped; overflow is counted, not stored. */
    static constexpr size_t kMaxEvents = 4096;

    // Injection side.
    u64 faultEvents = 0;   ///< Fault events applied to a stored image.
    u64 bitsFlipped = 0;   ///< Total bits flipped by those events.
    u64 coldFaults = 0;    ///< Events on blocks with no image yet.
    u64 faultsOnRetiredPages = 0; ///< Events dropped by retirement.
    /**
     * Campaign faults skipped because their scripted bit pattern no
     * longer fits the block's current stored geometry (e.g. a COP-ER
     * block that re-compressed under the script). Long campaigns
     * survive and count these instead of dying mid-cell; an explicit
     * single-shot injectFault with out-of-range bits still panics.
     */
    u64 injectSkipped = 0;

    // On-die SEC pre-filter (FaultConfig::ondieEcc). Conservation:
    // ondieInjected == ondieCorrected + ondieMiscorrected +
    // ondieForwarded (checked by agg_stats.py --check).
    u64 ondieInjected = 0;     ///< Raw events entering the filter.
    u64 ondieCorrected = 0;    ///< Fully scrubbed on die; image untouched.
    u64 ondieMiscorrected = 0; ///< SEC added a flip; pattern forwarded.
    u64 ondieForwarded = 0;    ///< Forwarded without miscorrection.

    // Demand-fill outcomes (sum over byClass).
    u64 benign = 0;
    u64 corrected = 0;
    u64 detected = 0;
    u64 silent = 0;

    // Recovery costs.
    u64 readRetries = 0;        ///< Retry attempts on DUE fills.
    u64 retryDramReads = 0;     ///< DRAM reads issued by retries.
    u64 scrubOnReadWrites = 0;  ///< Corrected fills written back clean.
    u64 recoveryRewrites = 0;   ///< DUE blocks rewritten from truth.
    u64 retiredPages = 0;

    // Patrol scrubber.
    u64 scrubbedBlocks = 0;  ///< Blocks the scrubber visited.
    u64 scrubReads = 0;      ///< DRAM reads charged to the scrubber.
    u64 scrubWrites = 0;     ///< DRAM writes charged to the scrubber.
    u64 scrubCorrected = 0;
    u64 scrubDetected = 0;

    std::array<ErrorOutcomeCounts, kVulnClasses> byClass{};

    std::vector<ErrorEvent> events;
    u64 droppedEvents = 0;

    const ErrorOutcomeCounts &
    of(VulnClass cls) const
    {
        return byClass[static_cast<size_t>(cls)];
    }

    /** Demand-fill observations across all classes. */
    u64 observedTotal() const
    {
        return benign + corrected + detected + silent;
    }

    /** Record one pipeline decision (counters + capped event list). */
    void
    note(ErrorEventKind kind, VulnClass cls, Addr addr, Cycle cycle,
         unsigned retries = 0)
    {
        auto &cls_counts = byClass[static_cast<size_t>(cls)];
        switch (kind) {
          case ErrorEventKind::Benign:
            ++benign;
            ++cls_counts.benign;
            break;
          case ErrorEventKind::Corrected:
            ++corrected;
            ++cls_counts.corrected;
            break;
          case ErrorEventKind::Detected:
            ++detected;
            ++cls_counts.detected;
            break;
          case ErrorEventKind::Silent:
            ++silent;
            ++cls_counts.silent;
            break;
          case ErrorEventKind::PageRetired:
            ++retiredPages;
            break;
          case ErrorEventKind::ScrubCorrected:
            ++scrubCorrected;
            break;
          case ErrorEventKind::ScrubDetected:
            ++scrubDetected;
            break;
        }
        if (events.size() < kMaxEvents)
            events.push_back(ErrorEvent{cycle, addr, kind, cls, retries});
        else
            ++droppedEvents;
    }
};

inline const char *
errorEventKindName(ErrorEventKind kind)
{
    switch (kind) {
      case ErrorEventKind::Benign: return "benign";
      case ErrorEventKind::Corrected: return "corrected";
      case ErrorEventKind::Detected: return "detected";
      case ErrorEventKind::Silent: return "silent";
      case ErrorEventKind::PageRetired: return "page-retired";
      case ErrorEventKind::ScrubCorrected: return "scrub-corrected";
      case ErrorEventKind::ScrubDetected: return "scrub-detected";
    }
    COP_PANIC("bad error event kind");
}

} // namespace cop

#endif // COP_MEM_ERROR_LOG_HPP
