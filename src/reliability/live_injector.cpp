#include "reliability/live_injector.hpp"

#include <algorithm>
#include <cmath>

#include "reliability/ondie_ecc.hpp"

namespace cop {

LiveInjector::LiveInjector(const FaultConfig &cfg, MemoryController &ctl,
                           u64 footprint_bytes, u64 seed_salt)
    : cfg_(cfg), ctl_(ctl),
      footprintBlocks_(footprint_bytes / kBlockBytes),
      rng_(cfg.seed ^ (seed_salt * 0x9e3779b97f4a7c15ULL)),
      campaign_(cfg.campaign)
{
    COP_ASSERT(cfg_.enabled);
    COP_ASSERT(cfg_.eventsPerMegacycle == 0 || footprintBlocks_ > 0);
    COP_ASSERT(cfg_.flipsPerEvent > 0 &&
               cfg_.flipsPerEvent <= kBlockBits);
    std::stable_sort(campaign_.begin(), campaign_.end(),
                     [](const PlannedFault &a, const PlannedFault &b) {
                         return a.cycle < b.cycle;
                     });
    if (cfg_.eventsPerMegacycle > 0 && footprintBlocks_ > 0)
        nextPoisson_ = poissonGap();
    if (cfg_.scrubIntervalCycles > 0)
        nextScrub_ = cfg_.scrubIntervalCycles;
}

Cycle
LiveInjector::poissonGap()
{
    const double rate = cfg_.eventsPerMegacycle * 1e-6; // per cycle
    const double u = rng_.uniform();
    const double gap = -std::log(1.0 - u) / rate;
    if (gap >= 1e18) // degenerate draw; keep the schedule finite
        return static_cast<Cycle>(1e18);
    return std::max<Cycle>(1, static_cast<Cycle>(std::llround(gap)));
}

void
LiveInjector::poissonEvent(Cycle now)
{
    const Addr addr = rng_.below(footprintBlocks_) * kBlockBytes;
    if (ctl_.imageOf(addr) == nullptr) {
        // Untouched block: no stored image exists to strike. Consume
        // no bit draws so the stream stays cheap and deterministic.
        ++ctl_.errorLog().coldFaults;
        return;
    }
    const unsigned nbits = ctl_.storedBits(addr);
    const unsigned draw_bits =
        cfg_.ondieEcc ? OndieEcc::extendedBits(nbits) : nbits;
    std::vector<unsigned> bits;
    drawDistinct(rng_, draw_bits, cfg_.flipsPerEvent, bits);
    if (!cfg_.ondieEcc) {
        ctl_.injectFault(addr, bits, now, false);
        return;
    }
    // Per-chip SEC filters the raw pattern before it can reach the
    // stored image; only the post-filter flips strike.
    ErrorLog &log = ctl_.errorLog();
    ++log.ondieInjected;
    std::vector<unsigned> forwarded;
    switch (OndieEcc::filter(nbits, bits, forwarded)) {
      case OndieOutcome::Corrected:
        ++log.ondieCorrected;
        return;
      case OndieOutcome::Miscorrected:
        ++log.ondieMiscorrected;
        break;
      case OndieOutcome::Forwarded:
        ++log.ondieForwarded;
        break;
    }
    ctl_.injectFault(addr, forwarded, now, false);
}

void
LiveInjector::scrubStep(Cycle now)
{
    if (scrubIdx_ >= scrubList_.size()) {
        // New pass over a fresh (sorted => deterministic) snapshot.
        scrubList_ = ctl_.imageAddressesSorted();
        scrubIdx_ = 0;
        if (scrubList_.empty()) {
            nextScrub_ += cfg_.scrubIntervalCycles;
            return;
        }
    }
    ctl_.patrolScrub(scrubList_[scrubIdx_++], now);
    // One block every interval/N cycles completes a pass per interval.
    nextScrub_ += std::max<Cycle>(
        1, cfg_.scrubIntervalCycles / scrubList_.size());
}

void
LiveInjector::advanceTo(Cycle now)
{
    while (true) {
        // Earliest pending source; ties break campaign > poisson >
        // scrub, deterministically.
        Cycle due = kNever;
        enum { None, Campaign, Poisson, Scrub } what = None;
        if (campaignIdx_ < campaign_.size()) {
            due = campaign_[campaignIdx_].cycle;
            what = Campaign;
        }
        if (nextPoisson_ < due) {
            due = nextPoisson_;
            what = Poisson;
        }
        if (nextScrub_ < due) {
            due = nextScrub_;
            what = Scrub;
        }
        if (what == None || due > now)
            return;
        // DRAM requests must arrive in non-decreasing order across the
        // whole run, so everything issues at `now` (the clock of the
        // core about to run); `due` only orders the sources.
        switch (what) {
          case Campaign: {
            const PlannedFault &f = campaign_[campaignIdx_++];
            // A scripted pattern can outlive its geometry: a COP-ER
            // block re-compressing shrinks storedBits under the
            // script, and letting injectFault panic would kill the
            // whole campaign cell. Skip-and-count instead; direct
            // single-shot injectFault calls keep the hard panic.
            // (Persistent faults already tolerate shrinkage inside
            // injectFault, and cold blocks keep their cold-fault
            // accounting there too.)
            if (!f.persistent && ctl_.imageOf(f.addr) != nullptr) {
                const unsigned nbits = ctl_.storedBits(f.addr);
                const bool fits = std::all_of(
                    f.bits.begin(), f.bits.end(),
                    [nbits](unsigned b) { return b < nbits; });
                if (!fits) {
                    ++ctl_.errorLog().injectSkipped;
                    break;
                }
            }
            ctl_.injectFault(f.addr, f.bits, now, f.persistent);
            break;
          }
          case Poisson:
            poissonEvent(now);
            nextPoisson_ += poissonGap();
            break;
          case Scrub:
            scrubStep(now);
            break;
          case None:
            break;
        }
    }
}

} // namespace cop
