/**
 * @file
 * Output-neutrality pin: a digest of the *integer* SystemResults fields
 * of short runs covering every scheme plus fault injection, bandwidth
 * mode and adaptive ECC-region capacity. A host-side optimisation (hash
 * tables, memo layers, loop restructuring) must leave every digest
 * unchanged. Only integer counters enter the digest, so libm
 * differences between hosts cannot move it; IPC and other derived
 * doubles are left out.
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
          dram.refreshStallsCas, dram.totalWriteLatency, dram.readBeats,
          dram.writeBeats, dram.beatsSaved, dram.busBusyCycles,
          dram.busTurnarounds})
        d.add(v);

    const MemStats &mem = r.mem;
    for (const u64 v :
         {mem.reads, mem.writes, mem.protectedWrites,
          mem.unprotectedWrites, mem.aliasRejects, mem.metaReads,
          mem.metaWrites, mem.metaCacheHits, mem.metaCacheMisses,
          mem.encodeCalls, mem.encodeMemoHits, mem.schemeTrials})
        d.add(v);
    for (const u64 v : mem.schemeWrites)
        d.add(v);

    d.add(r.vuln.totalReads());

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
    d.add(r.poolContentCacheHits);
    d.add(r.poolContentCacheMisses);
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
        {ControllerKind::Unprotected, 0x2c207b86c1922ecdULL},
        {ControllerKind::EccDimm, 0x2c207b86c1922ecdULL},
        {ControllerKind::EccRegion, 0xd7acaee5a70311f0ULL},
        {ControllerKind::Cop4, 0xe933da5ad509d1ccULL},
        {ControllerKind::Cop8, 0x70926ced92c45b5aULL},
        {ControllerKind::CopEr, 0x6fa7d3156a58a165ULL},
        {ControllerKind::CopErNaive, 0x70a6a7b0d48ef206ULL},
    };
    for (const auto &s : schemes)
        cases.push_back({controllerKindName(s.kind), "mcf",
                         shortConfig(s.kind), s.expected});

    SystemConfig faults = shortConfig(ControllerKind::CopEr);
    faults.fault.enabled = true;
    faults.fault.eventsPerMegacycle = 20000.0;
    faults.fault.flipsPerEvent = 2;
    faults.fault.scrubIntervalCycles = 500000;
    cases.push_back({"faults COP-ER", "gcc", faults, 0x74eb08fb988ed8efULL,
                     [](const SystemResults &r) {
                         return r.errors.faultEvents > 0;
                     }});

    SystemConfig bandwidth = shortConfig(ControllerKind::Cop4);
    bandwidth.bandwidthCompression = true;
    cases.push_back({"bandwidth COP", "lbm", bandwidth,
                     0xdc3845c8954f7087ULL, [](const SystemResults &r) {
                         return r.dram.beatsSaved > 0;
                     }});

    SystemConfig adaptive = shortConfig(ControllerKind::EccRegion);
    adaptive.adaptiveEccCapacity = true;
    cases.push_back({"adaptive ECC Reg.", "lbm", adaptive,
                     0xcdf5a3f4fd54cb15ULL, [](const SystemResults &r) {
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
