/**
 * @file
 * Output-neutrality pin: a digest of the *integer* SystemResults fields
 * of short runs covering every scheme plus fault injection and adaptive
 * ECC-region capacity. A host-side optimisation (hash tables, loop
 * restructuring) must leave every digest unchanged. Only
 * integer counters enter the digest, so libm differences between hosts
 * cannot move it; IPC and other derived doubles are left out.
 *
 * A change that alters the simulated model on purpose updates the
 * pinned values below (the failure message prints the new digest) and
 * says so in its change notes.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "sim/system.hpp"

namespace cop {
namespace {

/** FNV-1a over a stream of u64 fields. */
class Digest
{
  public:
    void
    add(u64 v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xFF;
            h_ *= 0x100000001b3ULL;
        }
    }

    u64 value() const { return h_; }

  private:
    u64 h_ = 0xcbf29ce484222325ULL;
};

u64
resultsDigest(const SystemResults &r)
{
    Digest d;
    d.add(r.instructions);
    d.add(r.cycles);
    d.add(r.llcMisses);
    d.add(r.writebacks);
    d.add(r.aliasPinEvents);

    const CacheStats &llc = r.llc;
    for (const u64 v : {llc.hits, llc.misses, llc.evictions,
                        llc.dirtyEvictions, llc.aliasPinned,
                        llc.setOverflows, llc.spillHits})
        d.add(v);

    const DramStats &dram = r.dram;
    for (const u64 v :
         {dram.reads, dram.writes, dram.rowHits, dram.rowMisses,
          dram.rowConflicts, dram.refreshStalls, dram.totalReadLatency,
          dram.refreshStallsCas, dram.totalWriteLatency,
          dram.busBusyCycles, dram.busTurnarounds})
        d.add(v);

    const MemStats &mem = r.mem;
    for (const u64 v :
         {mem.reads, mem.writes, mem.protectedWrites,
          mem.unprotectedWrites, mem.aliasRejects, mem.metaReads,
          mem.metaWrites, mem.metaCacheHits, mem.metaCacheMisses,
          mem.encodeCalls, mem.schemeTrials})
        d.add(v);
    for (const u64 v : mem.schemeWrites)
        d.add(v);

    // Per protection class, so a fill logged under the wrong class
    // moves the digest even without faults. Residency sums are whole
    // cycles, exact in a double at these run lengths.
    for (const VulnLog::Entry &e : r.vuln.byClass) {
        d.add(e.reads);
        d.add(static_cast<u64>(e.totalCycles));
    }

    const ErrorLog &err = r.errors;
    for (const u64 v :
         {err.faultEvents, err.bitsFlipped, err.coldFaults,
          err.faultsOnRetiredPages, err.injectSkipped, err.ondieInjected,
          err.ondieCorrected, err.ondieMiscorrected, err.ondieForwarded,
          err.benign, err.corrected, err.detected, err.silent,
          err.readRetries, err.retryDramReads, err.scrubOnReadWrites,
          err.recoveryRewrites, err.retiredPages, err.scrubbedBlocks,
          err.scrubReads, err.scrubWrites, err.scrubCorrected,
          err.scrubDetected, err.droppedEvents})
        d.add(v);
    for (const ErrorOutcomeCounts &c : err.byClass) {
        d.add(c.benign);
        d.add(c.corrected);
        d.add(c.detected);
        d.add(c.silent);
    }
    d.add(err.events.size());

    const MemoryController::AdaptiveStats &ad = r.adaptive;
    for (const u64 v : {ad.slotsReclaimed, ad.demotions,
                        ad.victimEvictions, ad.releasedBlocks,
                        ad.releasedBlocksHighWater})
        d.add(v);

    d.add(r.everUncompressedBlocks);
    d.add(r.touchedBlocks);
    d.add(r.eccRegionBytes);
    d.add(r.eccRegionBytesNoDealloc);
    d.add(r.poolBlockForCalls);
    return d.value();
}

SystemConfig
shortConfig(ControllerKind kind)
{
    SystemConfig cfg;
    cfg.cores = 2;
    cfg.kind = kind;
    cfg.epochsPerCore = 1500;
    cfg.llc = CacheConfig{256ULL << 10, 8, 34}; // small LLC: evictions
    cfg.verifyData = true;
    return cfg;
}

struct DigestCase
{
    const char *name;
    const char *profile;
    SystemConfig cfg;
    u64 expected;
    /** The mode under test did real work (nullptr: nothing to check). */
    bool (*live)(const SystemResults &) = nullptr;
};

std::vector<DigestCase>
digestCases()
{
    std::vector<DigestCase> cases;
    const struct
    {
        ControllerKind kind;
        u64 expected;
    } schemes[] = {
        {ControllerKind::Unprotected, 0xc354a66f810e2b4cULL},
        {ControllerKind::EccDimm, 0xf33d04c1efffbe4cULL},
        {ControllerKind::EccRegion, 0x23b3257ab0fa345aULL},
        {ControllerKind::Cop4, 0xdfe948cb161d5ca9ULL},
        {ControllerKind::Cop8, 0x78666de705aa7981ULL},
        {ControllerKind::CopEr, 0x4e8cf932a1f8471dULL},
        {ControllerKind::CopErNaive, 0x6356c506ea741c5bULL},
    };
    for (const auto &s : schemes)
        cases.push_back({controllerKindName(s.kind), "mcf",
                         shortConfig(s.kind), s.expected});

    SystemConfig faults = shortConfig(ControllerKind::CopEr);
    faults.fault.enabled = true;
    faults.fault.eventsPerMegacycle = 20000.0;
    faults.fault.flipsPerEvent = 2;
    faults.fault.scrubIntervalCycles = 500000;
    cases.push_back({"faults COP-ER", "gcc", faults, 0x6a507f3961020034ULL,
                     [](const SystemResults &r) {
                         return r.errors.faultEvents > 0;
                     }});

    // Faults dense enough (one arrival per cycle) that every controller
    // reads faulted images back through its decode path.
    const struct
    {
        const char *name;
        ControllerKind kind;
        u64 expected;
    } faulted[] = {
        {"read-back faults ECC DIMM", ControllerKind::EccDimm,
         0xf492e7c10f2d3891ULL},
        {"read-back faults ECC Reg.", ControllerKind::EccRegion,
         0x120f421f2f7708fcULL},
        {"read-back faults COP", ControllerKind::Cop4,
         0xdf0be2e42724041eULL},
        {"read-back faults COP-ER", ControllerKind::CopEr,
         0xfed2d587b9fb3b83ULL},
        {"read-back faults COP-ER-nv", ControllerKind::CopErNaive,
         0xc788cbb569272bccULL},
    };
    for (const auto &f : faulted) {
        SystemConfig dense = faults;
        dense.kind = f.kind;
        dense.fault.eventsPerMegacycle = 1e6;
        cases.push_back({f.name, "gcc", dense, f.expected,
                         [](const SystemResults &r) {
                             const ErrorLog &e = r.errors;
                             return e.corrected + e.detected + e.silent > 0;
                         }});
    }

    // No stock profile drains a whole COP-ER entry block within a run
    // this short (none does by 12,000 epochs either), so adaptive
    // capacity is pinned through the ECC-region baseline only.
    SystemConfig adaptive = shortConfig(ControllerKind::EccRegion);
    adaptive.adaptiveEccCapacity = true;
    cases.push_back({"adaptive ECC Reg.", "lbm", adaptive,
                     0x238f7b27ae5e7dadULL, [](const SystemResults &r) {
                         return r.adaptive.slotsReclaimed > 0;
                     }});
    return cases;
}

TEST(ResultsDigest, IntegerResultsMatchPinnedDigests)
{
    for (const DigestCase &c : digestCases()) {
        System sys(WorkloadRegistry::byName(c.profile), c.cfg);
        const SystemResults r = sys.run();
        if (c.live != nullptr) {
            EXPECT_TRUE(c.live(r)) << c.name << ": mode never engaged";
        }
        const u64 got = resultsDigest(r);
        char hex[32];
        std::snprintf(hex, sizeof hex, "0x%016llxULL",
                      static_cast<unsigned long long>(got));
        EXPECT_EQ(got, c.expected) << c.name << ": digest is " << hex;
    }
}

} // namespace
} // namespace cop
