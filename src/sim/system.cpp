#include "sim/system.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <thread>

#include "mem/coper_controller.hpp"
#include "mem/coper_naive_controller.hpp"
#include "mem/ecc_region_controller.hpp"

namespace cop {

namespace {

/**
 * Generation barrier for the fast-timing quantum loop: all shard
 * threads arrive, the last arrival flips the generation and releases
 * everyone. Reusable across quanta. Mutex + condvar — the barrier
 * fires at quantum granularity (thousands of epochs), so contention is
 * noise, and TSan sees plain happens-before edges.
 */
class QuantumBarrier
{
  public:
    explicit QuantumBarrier(unsigned parties) : parties_(parties) {}

    /** Arrive; block until all parties of this generation have. */
    void
    arriveAndWait()
    {
        std::unique_lock<std::mutex> lock(m_);
        const u64 gen = generation_;
        if (++waiting_ == parties_) {
            waiting_ = 0;
            ++generation_;
            cv_.notify_all();
            return;
        }
        cv_.wait(lock, [&] { return generation_ != gen; });
    }

  private:
    std::mutex m_;
    std::condition_variable cv_;
    unsigned parties_;
    unsigned waiting_ = 0;
    u64 generation_ = 0;
};

} // namespace

const char *
controllerKindName(ControllerKind k)
{
    switch (k) {
      case ControllerKind::Unprotected: return "Unprot.";
      case ControllerKind::EccDimm: return "ECC DIMM";
      case ControllerKind::EccRegion: return "ECC Reg.";
      case ControllerKind::Cop4: return "COP";
      case ControllerKind::Cop8: return "COP-8B";
      case ControllerKind::CopEr: return "COP-ER";
      case ControllerKind::CopErNaive: return "COP-ER-nv";
    }
    COP_PANIC("bad controller kind");
}

std::unique_ptr<MemoryController>
makeController(ControllerKind kind, DramSystem &dram,
               MemoryController::ContentSource content,
               Cycle decode_latency, u64 meta_cache_bytes,
               EncodeMemo *memo)
{
    switch (kind) {
      case ControllerKind::Unprotected:
        return std::make_unique<UnprotectedController>(dram,
                                                       std::move(content));
      case ControllerKind::EccDimm:
        return std::make_unique<EccDimmController>(dram,
                                                   std::move(content));
      case ControllerKind::EccRegion:
        return std::make_unique<EccRegionController>(
            dram, std::move(content), meta_cache_bytes);
      case ControllerKind::Cop4:
        return std::make_unique<CopController>(
            dram, std::move(content), CopConfig::fourByte(),
            decode_latency, memo);
      case ControllerKind::Cop8:
        return std::make_unique<CopController>(
            dram, std::move(content), CopConfig::eightByte(),
            decode_latency, memo);
      case ControllerKind::CopEr:
        return std::make_unique<CopErController>(
            dram, std::move(content), decode_latency, meta_cache_bytes,
            memo);
      case ControllerKind::CopErNaive:
        return std::make_unique<CopErNaiveController>(
            dram, std::move(content), decode_latency, meta_cache_bytes,
            memo);
    }
    COP_PANIC("bad controller kind");
}

unsigned
System::fastShardCount(const SystemConfig &cfg)
{
    if (!cfg.fastTiming) {
        if (cfg.simThreads != 1)
            COP_FATAL("simThreads != 1 needs fastTiming: the exact run "
                      "is serial (parallelise a grid with the runner's "
                      "--jobs instead)");
        return 1;
    }
    if (cfg.fault.enabled)
        COP_FATAL("fastTiming is incompatible with fault injection: the "
                  "error-recovery paths are defined against the exact "
                  "serial interleaving");
    if (cfg.cores < 2)
        COP_FATAL("fastTiming needs >= 2 cores to partition");
    if (cfg.fastTimingQuantumEpochs == 0)
        COP_FATAL("fastTimingQuantumEpochs must be positive");
    unsigned threads = cfg.simThreads;
    if (threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw == 0 ? 1 : hw;
    }
    if (threads < 2)
        COP_FATAL("fastTiming needs simThreads >= 2 (one shard would "
                  "only add approximation without speedup)");
    return std::min<unsigned>(threads, cfg.cores);
}

CacheConfig
System::fastLlcConfig(const CacheConfig &llc, unsigned shard_count)
{
    // Way-partition: each shard owns ways/shard_count ways of every
    // set, so the set count — and with it the index function — is
    // unchanged and per-shard capacity sums to the original cache.
    CacheConfig out = llc;
    out.ways = std::max(1u, llc.ways / shard_count);
    out.sizeBytes = llc.sets() * out.ways * kBlockBytes;
    return out;
}

System::System(const WorkloadProfile &profile, const SystemConfig &cfg)
    : System(profile, cfg, 0, fastShardCount(cfg))
{
}

System::System(const WorkloadProfile &profile, const SystemConfig &cfg,
               unsigned shard_index, unsigned shard_count)
    : profile_(profile), cfg_(cfg), dram_(cfg.dram),
      llc_(shard_count > 1 ? fastLlcConfig(cfg.llc, shard_count)
                           : cfg.llc),
      shardIndex_(shard_index), shardCount_(shard_count)
{
    COP_ASSERT(cfg_.cores >= 1);
    if (shardCount_ > 1) {
        // Relaxed-consistency shard: way-partitioned LLC, a
        // metadata-cache share, and no verify oracle — a shared
        // footprint is reconciled only at quantum barriers, so a
        // shard's functional memory may be a few stores stale and the
        // oracle would flag exactly the staleness the divergence
        // contract tolerates (DESIGN.md §8).
        cfg_.llc = fastLlcConfig(cfg.llc, shardCount_);
        cfg_.metaCacheBytes =
            std::max<u64>(kBlockBytes, cfg.metaCacheBytes / shardCount_);
        cfg_.verifyData = false;
    }
    cores_.resize(cfg_.cores);
    for (unsigned c = 0; c < cfg_.cores; ++c) {
        if (cfg_.epochSource) {
            cores_[c].gen =
                cfg_.epochSource(c, cfg_.contentCacheEntries);
            COP_ASSERT(cores_[c].gen != nullptr);
        } else {
            cores_[c].gen = std::make_unique<TraceGenerator>(
                profile, c, cfg_.seedSalt, cfg_.contentCacheEntries);
        }
        cores_[c].pool = &cores_[c].gen->pool();
    }
    encodeMemo_ = std::make_unique<EncodeMemo>(cfg_.encodeMemoEntries);
    controller_ = makeController(
        cfg_.kind, dram_,
        [this](Addr addr) -> const CacheBlock & {
            return poolFor(addr).blockForRef(addr);
        },
        cfg_.decodeLatency, cfg_.metaCacheBytes, encodeMemo_.get());
    if (cfg_.bandwidthCompression) {
        if (cfg_.bandwidthBeatFloor < 1 || cfg_.bandwidthBeatFloor > 8)
            COP_FATAL("bandwidthBeatFloor must be in [1, 8]");
        controller_->enableBandwidthMode(cfg_.bandwidthBeatFloor);
    }
    if (cfg_.adaptiveEccCapacity)
        controller_->enableAdaptiveCapacity();
    evictFilter_ = [this](Addr victim, const CacheLineState &) {
        probedData_ = poolFor(victim).blockForRef(victim);
        probedAddr_ = victim;
        probed_ = true;
        return !controller_->wouldAliasReject(probedData_);
    };

    // Footprint-based pre-sizing of the flat hash state: the touched
    // footprint is bounded by both the address space and the reference
    // count ((1 + 2*mlp)/2 expected references per epoch), with a hard
    // cap so short unit-test runs stay tiny and huge sweeps do not
    // over-allocate. Purely an allocation hint — growth is automatic.
    const u64 poolRegions =
        (profile_.sharedFootprint || cfg_.cores == 1) ? 1 : cfg_.cores;
    const u64 expectedRefs =
        cfg_.epochsPerCore * cfg_.cores * (2 * profile_.mlp + 1) / 2;
    const u64 touchEstimate =
        std::min({poolRegions * profile_.footprintBlocks, expectedRefs,
                  u64{1} << 19});
    controller_->reserveFootprint(touchEstimate);
    const u64 writeEstimate = static_cast<u64>(
        static_cast<double>(touchEstimate / poolRegions) *
        profile_.writeFraction);
    for (unsigned c = 0; c < poolRegions; ++c)
        cores_[c].gen->pool().reserveVersions(writeEstimate);

    if (cfg_.fault.enabled) {
        controller_->enableFaultInjection(cfg_.fault.recovery);
        const u64 regions =
            (profile_.sharedFootprint || cfg_.cores == 1) ? 1 : cfg_.cores;
        const u64 footprint =
            regions * profile_.footprintBlocks * kBlockBytes;
        injector_ = std::make_unique<LiveInjector>(
            cfg_.fault, *controller_, footprint, cfg_.seedSalt);
    }

    if (!cfg_.traceStatsPath.empty() && cfg_.traceStatsEpochInterval == 0)
        COP_FATAL("traceStatsEpochInterval must be positive");

    if (shardCount_ > 1 && profile_.sharedFootprint) {
        // Shared-footprint runs log every version bump so the owner
        // can merge the shards' views at each quantum barrier.
        cores_[0].gen->pool().enableBumpLog();
    }
    if (shardIndex_ == 0 && shardCount_ > 1) {
        // The owner IS shard 0; it constructs the peer shards from the
        // caller's original configuration (each peer applies its own
        // partitioning above). Peers never open the stats trace — the
        // owner's registry is the run's single observability stream.
        SystemConfig peerCfg = cfg;
        peerCfg.traceStatsPath.clear();
        for (unsigned s = 1; s < shardCount_; ++s)
            peers_.emplace_back(
                new System(profile, peerCfg, s, shardCount_));
    }
    registerAllStats();
}

void
System::registerAllStats()
{
    dram_.registerStats(statsRegistry_);
    controller_->registerStats(statsRegistry_);
    statsRegistry_.gauge("codec.encode_calls",
                         [this] { return encodeMemo_->lookups(); });
    statsRegistry_.gauge("codec.memo_hits",
                         [this] { return encodeMemo_->hits(); });
    statsRegistry_.gauge("codec.scheme_trials",
                         [this] { return encodeMemo_->schemeTrials(); });
    statsRegistry_.gauge("llc.hits",
                         [this] { return llc_.stats().hits; });
    statsRegistry_.gauge("llc.misses",
                         [this] { return llc_.stats().misses; });
    statsRegistry_.gauge("sys.llc_misses", [this] { return missCount_; });
    statsRegistry_.gauge("sys.writebacks", [this] { return writebacks_; });
    statsRegistry_.gauge("sys.instructions", [this] {
        u64 total = 0;
        for (const Core &core : cores_)
            total += core.instructions;
        return total;
    });
    statsRegistry_.gauge("sys.epochs", [this] {
        u64 total = 0;
        for (const Core &core : cores_)
            total += core.epochsDone;
        return total;
    });
    // Functional-memory content cache + flat-map load factors. Summed
    // over every core pool (idle pools contribute zero in
    // shared-footprint mode).
    statsRegistry_.gauge("pool.block_for_calls", [this] {
        u64 total = 0;
        for (const Core &core : cores_)
            total += core.gen->pool().blockForCalls();
        return total;
    });
    statsRegistry_.gauge("pool.content_cache_hits", [this] {
        u64 total = 0;
        for (const Core &core : cores_)
            total += core.gen->pool().contentCacheHits();
        return total;
    });
    statsRegistry_.gauge("pool.content_cache_misses", [this] {
        u64 total = 0;
        for (const Core &core : cores_)
            total += core.gen->pool().contentCacheMisses();
        return total;
    });
    statsRegistry_.gauge("pool.version_map_entries", [this] {
        u64 total = 0;
        for (const Core &core : cores_)
            total += core.gen->pool().versionMapEntries();
        return total;
    });
    statsRegistry_.gauge("pool.version_map_slots", [this] {
        u64 total = 0;
        for (const Core &core : cores_)
            total += core.gen->pool().versionMapSlots();
        return total;
    });
    statsRegistry_.gauge("pool.image_entries",
                         [this] { return controller_->imageBlockCount(); });
    statsRegistry_.gauge("pool.image_slots",
                         [this] { return controller_->imageSlotCount(); });
    // On-die SEC filter conservation counters: every injected raw
    // pattern is exactly one of corrected / miscorrected / forwarded
    // (agg_stats.py --check enforces the per-snapshot identity).
    statsRegistry_.gauge("ondie.injected", [this] {
        return controller_->errorLog().ondieInjected;
    });
    statsRegistry_.gauge("ondie.corrected", [this] {
        return controller_->errorLog().ondieCorrected;
    });
    statsRegistry_.gauge("ondie.miscorrected", [this] {
        return controller_->errorLog().ondieMiscorrected;
    });
    statsRegistry_.gauge("ondie.forwarded", [this] {
        return controller_->errorLog().ondieForwarded;
    });
    // Trace-replay conservation counters (only registered when this
    // System replays captured traces, so a synthetic run's stats trace
    // is untouched by the feature): every epoch and access a source
    // reads must be replayed through the LLC in the same merge step —
    // agg_stats.py --check enforces read == replayed per snapshot.
    if (cfg_.epochSource) {
        const auto readCounters = [this] {
            ReplaySourceCounters total;
            for (const Core &core : cores_) {
                ReplaySourceCounters one;
                if (core.gen->replayCounters(one)) {
                    total.epochs += one.epochs;
                    total.accesses += one.accesses;
                }
            }
            return total;
        };
        statsRegistry_.gauge("trace.epochs_read", [readCounters] {
            return readCounters().epochs;
        });
        statsRegistry_.gauge("trace.accesses_read", [readCounters] {
            return readCounters().accesses;
        });
        statsRegistry_.gauge("trace.epochs_replayed", [this] {
            u64 total = 0;
            for (const Core &core : cores_)
                total += core.epochsDone;
            return total;
        });
        statsRegistry_.gauge("trace.accesses_replayed", [this] {
            return llc_.stats().hits + llc_.stats().misses;
        });
    }
    // Adaptive-capacity accounting. Only monotonic counters are
    // registered (the trace checker requires non-negative deltas), so
    // the current released-block count is exported as its high water.
    statsRegistry_.gauge("adaptive.slots_reclaimed", [this] {
        return controller_->adaptiveStats().slotsReclaimed;
    });
    statsRegistry_.gauge("adaptive.demotions", [this] {
        return controller_->adaptiveStats().demotions;
    });
    statsRegistry_.gauge("adaptive.victim_evictions", [this] {
        return controller_->adaptiveStats().victimEvictions;
    });
    statsRegistry_.gauge("adaptive.released_blocks_hw", [this] {
        return controller_->adaptiveStats().releasedBlocksHighWater;
    });
    // Fast-timing divergence gauges — registered only on the owner of
    // a relaxed-consistency run, so exact-mode stats traces are
    // untouched by the feature. All four are nondecreasing (the trace
    // checker requires non-negative deltas); they are drained only at
    // quantum barriers, when every peer shard is parked at the exit
    // barrier, so reading peer state here is race-free.
    if (shardIndex_ == 0 && shardCount_ > 1) {
        statsRegistry_.gauge("shard.divergence_barriers",
                             [this] { return ft_.barriers; });
        statsRegistry_.gauge("shard.divergence_ambient_stall_cycles",
                             [this] {
                                 Cycle total =
                                     dram_.stats().ambientStallCycles;
                                 for (const auto &peer : peers_)
                                     total += peer->dram_.stats()
                                                  .ambientStallCycles;
                                 return total;
                             });
        statsRegistry_.gauge("shard.divergence_ambient_row_closes",
                             [this] {
                                 u64 total =
                                     dram_.stats().ambientRowCloses;
                                 for (const auto &peer : peers_)
                                     total += peer->dram_.stats()
                                                  .ambientRowCloses;
                                 return total;
                             });
        statsRegistry_.gauge("shard.divergence_clock_skew_max",
                             [this] { return ft_.clockSkewMax; });
        statsRegistry_.gauge("shard.divergence_version_merges",
                             [this] { return ft_.versionMerges; });
    }
}

Cycle
System::maxCoreClock() const
{
    Cycle clock = 0;
    for (const Core &core : cores_)
        clock = std::max(clock, core.clock);
    return clock;
}

System::~System() = default;

BlockContentPool &
System::poolFor(Addr addr)
{
    if (profile_.sharedFootprint || cfg_.cores == 1)
        return *cores_[0].pool;
    const u64 region = profile_.footprintBlocks * kBlockBytes;
    const u64 core = addr / region;
    // Unconditional: an address at or past cores * region would index
    // out of bounds, which a compiled-out assert turns into UB.
    if (core >= cores_.size()) {
        COP_PANIC("address " + std::to_string(addr) +
                  " is outside the " + std::to_string(cores_.size()) +
                  " per-core footprint regions of " +
                  std::to_string(region) + " bytes");
    }
    return *cores_[core].pool;
}

void
System::performWriteback(const CacheEviction &ev, Cycle now,
                         const CacheBlock *data)
{
    COP_ASSERT(ev.valid && ev.state.dirty);
    const CacheBlock &block =
        data != nullptr ? *data : poolFor(ev.addr).blockForRef(ev.addr);
    const MemWriteResult wr = controller_->writeback(
        ev.addr, block, now, ev.state.wasUncompressed);
    // The insert-time filter already pinned true aliases; a rejection
    // here would mean the filter and the encoder disagree.
    COP_ASSERT(!wr.aliasRejected);
    ++writebacks_;
}

Cycle
System::handleMiss(Addr addr, bool is_write, Cycle now)
{
    ++missCount_;
    const MemReadResult fill = controller_->read(addr, now);

    if (cfg_.verifyData) {
        // Ground-truth oracle: compare the fill against functional
        // memory. Without fault injection any mismatch is an encoder/
        // decoder bug and aborts; with it, a mismatch nobody flagged
        // is silent data corruption and is counted as such.
        const CacheBlock &expect = poolFor(addr).blockForRef(addr);
        const bool match = fill.data == expect;
        if (!match && !fill.detectedUncorrectable) {
            if (cfg_.fault.enabled) {
                controller_->noteSilentFill(addr, fill.fillClass, now);
            } else {
                COP_PANIC("memory returned wrong data for block " +
                          std::to_string(addr));
            }
        } else if (match && fill.faultedBlock && !fill.correctedError &&
                   !fill.detectedUncorrectable) {
            // Faults present but the decoded data is right anyway
            // (e.g. flips confined to a discarded pointer field).
            controller_->noteBenignFill(addr, fill.fillClass, now);
        }
    }

    // Track which blocks were ever resident uncompressed (Figure 12's
    // "ever incompressible in DRAM" storage accounting).
    if (fill.wasUncompressed)
        everUncompressed_.insert(addr / kBlockBytes * kBlockBytes);

    // The filter's victim block is kept so a filter-approved eviction
    // writes back exactly that block instead of regenerating it (the
    // version cannot change between the probe and the writeback below).
    probed_ = false;
    CacheLineState *installed = nullptr;
    const CacheEviction ev =
        llc_.insert(addr, is_write, evictFilter_, &installed);
    if (ev.valid && ev.state.dirty) {
        performWriteback(ev, now,
                         probed_ && probedAddr_ == ev.addr ? &probedData_
                                                           : nullptr);
    }

    if (installed != nullptr) {
        installed->wasUncompressed = fill.wasUncompressed;
        if (fill.aliasPinned) {
            // First touch of an incompressible alias: it only exists
            // here, so it is dirty and pinned.
            installed->dirty = true;
            llc_.setAlias(*installed, true);
        }
    }
    return fill.complete;
}

void
System::proactiveAliasCheck(Addr addr)
{
    if (!cfg_.proactiveAliasCheck)
        return;
    if (llc_.findState(addr) == nullptr)
        return;
    if (controller_->wouldAliasReject(poolFor(addr).blockForRef(addr)))
        llc_.setAlias(addr, true);
}

void
System::runEpoch(Core &core, const Epoch &epoch)
{
    // Compute phase at the perfect-L3 IPC; the epoch's misses overlap
    // with it and with each other (interval simulation).
    const auto compute = static_cast<Cycle>(
        static_cast<double>(epoch.instructions) / profile_.perfectIpc);
    const Cycle issue = core.clock;
    Cycle memory_done = issue;

    for (const TraceAccess &access : epoch.accesses) {
        if (llc_.access(access.addr, access.isWrite)) {
            if (access.isWrite) {
                poolFor(access.addr).bumpVersion(access.addr);
                proactiveAliasCheck(access.addr);
            }
            continue; // hit latency is folded into the perfect-L3 IPC
        }
        const Cycle done = handleMiss(access.addr, access.isWrite, issue);
        if (access.isWrite) {
            poolFor(access.addr).bumpVersion(access.addr);
            proactiveAliasCheck(access.addr);
        }
        memory_done = std::max(memory_done, done + cfg_.llc.latency);
    }

    core.clock = std::max(issue + compute, memory_done);
    core.instructions += epoch.instructions;
    ++core.epochsDone;
}

void
System::runSerial(std::ofstream &trace)
{
    u64 epochsDone = 0;
    u64 epochsSinceSnapshot = 0;

    // Global-time interleaving: always advance the core that is
    // furthest behind, so DRAM sees each core's requests in a
    // plausibly-ordered merge.
    while (true) {
        Core *next = nullptr;
        for (Core &core : cores_) {
            if (core.epochsDone >= cfg_.epochsPerCore)
                continue;
            if (next == nullptr || core.clock < next->clock)
                next = &core;
        }
        if (next == nullptr)
            break;
        if (injector_)
            injector_->advanceTo(next->clock);
        runEpoch(*next, next->gen->next());
        ++epochsDone;
        if (trace.is_open() &&
            ++epochsSinceSnapshot >= cfg_.traceStatsEpochInterval) {
            trace << statsRegistry_.drainEpochJson(epochsDone,
                                                   maxCoreClock())
                  << "\n";
            epochsSinceSnapshot = 0;
        }
    }
    if (trace.is_open()) {
        // Final snapshot so the trace always sums to the run totals.
        trace << statsRegistry_.drainEpochJson(epochsDone, maxCoreClock())
              << "\n";
    }
}

void
System::runFastQuantum(u64 target_epochs)
{
    // The serial furthest-behind merge loop, restricted to this
    // shard's cores (c ≡ shardIndex_ mod shardCount_) and capped at
    // the quantum's epoch target. Deterministic: the shard touches no
    // state outside itself between barriers.
    while (true) {
        Core *next = nullptr;
        for (unsigned c = shardIndex_; c < cores_.size();
             c += shardCount_) {
            Core &core = cores_[c];
            if (core.epochsDone >= target_epochs)
                continue;
            if (next == nullptr || core.clock < next->clock)
                next = &core;
        }
        if (next == nullptr)
            break;
        runEpoch(*next, next->gen->next());
    }
}

void
System::reconcileShards(u64 quantum_cycles_hint)
{
    // Owner-only; every peer is parked at the exit barrier, so all
    // shard state is quiescent and reads/writes here are race-free.
    std::vector<System *> shards;
    shards.reserve(shardCount_);
    shards.push_back(this);
    for (auto &peer : peers_)
        shards.push_back(peer.get());

    // (a) Ambient bus load: model the other shards' channel traffic as
    // an expected queueing delay. Each shard's external utilisation is
    // the sum of the *other* shards' bus-busy deltas over this
    // quantum's cycle span and channel count.
    Cycle globalClock = 0;
    Cycle minShardClock = 0;
    bool first = true;
    for (System *s : shards) {
        const Cycle c = s->maxCoreClock();
        globalClock = std::max(globalClock, c);
        minShardClock = first ? c : std::min(minShardClock, c);
        first = false;
    }
    const Cycle span = globalClock > lastGlobalClock_
                           ? globalClock - lastGlobalClock_
                           : quantum_cycles_hint;
    lastGlobalClock_ = globalClock;
    ft_.clockSkewMax =
        std::max(ft_.clockSkewMax, globalClock - minShardClock);

    std::vector<Cycle> deltas(shards.size());
    std::vector<u64> accessDeltas(shards.size());
    Cycle totalDelta = 0;
    u64 totalAccessDelta = 0;
    for (size_t i = 0; i < shards.size(); ++i) {
        const Cycle busy = shards[i]->dram_.stats().busBusyCycles;
        deltas[i] = busy - shards[i]->lastBusBusy_;
        shards[i]->lastBusBusy_ = busy;
        totalDelta += deltas[i];
        const u64 accesses = shards[i]->dram_.stats().reads +
                             shards[i]->dram_.stats().writes;
        accessDeltas[i] = accesses - shards[i]->lastAccesses_;
        shards[i]->lastAccesses_ = accesses;
        totalAccessDelta += accessDeltas[i];
    }
    const double denom = static_cast<double>(span) *
                         static_cast<double>(cfg_.dram.channels);
    // Row-buffer interference spreads over every bank in the system.
    const double bank_cycles =
        static_cast<double>(span) *
        static_cast<double>(cfg_.dram.channels) *
        static_cast<double>(cfg_.dram.ranksPerChannel) *
        static_cast<double>(cfg_.dram.banksPerRank);
    for (size_t i = 0; i < shards.size(); ++i) {
        const double ext =
            denom > 0.0
                ? static_cast<double>(totalDelta - deltas[i]) / denom
                : 0.0;
        shards[i]->dram_.setAmbientBusLoad(ext);
        const double close_rate =
            bank_cycles > 0.0
                ? static_cast<double>(totalAccessDelta -
                                      accessDeltas[i]) /
                      bank_cycles
                : 0.0;
        shards[i]->dram_.setAmbientRowCloseRate(close_rate);
    }

    // (b) Shared-footprint version merge: fold every shard's logged
    // store bumps into the global version view, then advance every
    // shard's pool to it. The touched list is sorted and deduplicated
    // so the merge order — and with it the run — is deterministic.
    // Content images already cached under a stale version are
    // tolerated (verifyData is off in fast mode) and replaced on the
    // next version-keyed miss.
    if (profile_.sharedFootprint) {
        std::vector<Addr> touched;
        for (System *s : shards) {
            for (const Addr a : s->cores_[0].pool->drainBumpLog()) {
                ++globalVersions_[a];
                touched.push_back(a);
            }
        }
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()),
                      touched.end());
        for (const Addr a : touched) {
            const u32 global = globalVersions_[a];
            for (System *s : shards) {
                BlockContentPool &pool = *s->cores_[0].pool;
                if (pool.versionOf(a) != global) {
                    pool.setVersion(a, global);
                    ++ft_.versionMerges;
                }
            }
        }
    }
}

void
System::runFastTiming(std::ofstream &trace)
{
    const u64 quantum = cfg_.fastTimingQuantumEpochs;

    // The per-core epoch targets of the successive quanta — identical
    // on every shard, so the barrier count is deterministic. A short
    // warm-up quantum comes first: the ambient-contention estimates
    // start at zero (a fresh run has no traffic history), and without
    // it the whole first quantum — a large share of a short CI run —
    // would simulate contention-free.
    std::vector<u64> targets;
    {
        const u64 warmup = std::min<u64>(8, quantum);
        u64 t = std::min(cfg_.epochsPerCore, warmup);
        targets.push_back(t);
        while (t < cfg_.epochsPerCore) {
            t = std::min(cfg_.epochsPerCore, t + quantum);
            targets.push_back(t);
        }
    }

    // Two generation barriers per quantum: all shards arrive at
    // `enter` with their quantum complete; peers then park at `exit`
    // while the owner reconciles; the owner's arrival at `exit`
    // releases everyone into the next quantum. Shard errors set the
    // failure flag but keep arriving at both barriers, so a dying run
    // can never deadlock the others — the owner re-raises after join.
    QuantumBarrier enter(shardCount_);
    QuantumBarrier exitB(shardCount_);
    std::vector<std::string> failures(shardCount_);
    std::atomic<bool> failed{false};

    auto guarded = [&](unsigned shard, auto &&fn) {
        if (failed.load(std::memory_order_relaxed))
            return;
        try {
            fn();
        } catch (const std::exception &e) {
            failures[shard] = e.what();
            failed.store(true, std::memory_order_relaxed);
        } catch (...) {
            failures[shard] = "unknown shard failure";
            failed.store(true, std::memory_order_relaxed);
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(peers_.size());
    for (auto &peerPtr : peers_) {
        System *peer = peerPtr.get();
        threads.emplace_back([&, peer] {
            for (const u64 target : targets) {
                guarded(peer->shardIndex_,
                        [&] { peer->runFastQuantum(target); });
                enter.arriveAndWait();
                exitB.arriveAndWait();
            }
        });
    }

    const u64 interval = cfg_.traceStatsEpochInterval;
    auto globalEpochs = [&] {
        u64 total = 0;
        for (const Core &core : cores_)
            total += core.epochsDone;
        for (const auto &peer : peers_)
            for (const Core &core : peer->cores_)
                total += core.epochsDone;
        return total;
    };

    for (const u64 target : targets) {
        guarded(0, [&] { runFastQuantum(target); });
        enter.arriveAndWait();
        guarded(0, [&] {
            reconcileShards(quantum);
            ++ft_.barriers;
            // Owner-registry snapshot at barrier cadence: the closest
            // deterministic analogue of the serial trace's per-epoch
            // interval (snapshots can only happen when all shards are
            // quiescent).
            if (trace.is_open() &&
                globalEpochs() - lastSnapshotEpochs_ >= interval) {
                trace << statsRegistry_.drainEpochJson(globalEpochs(),
                                                       lastGlobalClock_)
                      << "\n";
                lastSnapshotEpochs_ = globalEpochs();
            }
        });
        exitB.arriveAndWait();
    }
    for (std::thread &t : threads)
        t.join();
    if (failed.load()) {
        for (unsigned s = 0; s < shardCount_; ++s)
            if (!failures[s].empty())
                COP_FATAL("fast-timing shard " + std::to_string(s) +
                          " failed: " + failures[s]);
        COP_FATAL("fast-timing run failed");
    }
    if (trace.is_open()) {
        // Final snapshot so the trace always sums to the run totals.
        trace << statsRegistry_.drainEpochJson(globalEpochs(),
                                               lastGlobalClock_)
              << "\n";
    }
}

SystemResults
System::run()
{
    // Optional observability trace: one JSONL snapshot of the stats
    // registry every traceStatsEpochInterval completed epochs. When
    // the path is empty nothing below touches the registry, so a
    // tracing-off run is byte-identical to one without the feature.
    std::ofstream trace;
    if (!cfg_.traceStatsPath.empty()) {
        trace.open(cfg_.traceStatsPath);
        if (!trace)
            COP_FATAL("cannot open stats trace " + cfg_.traceStatsPath);
    }

    if (cfg_.fastTiming) {
        runFastTiming(trace);
    } else {
        runSerial(trace);
    }

    SystemResults results = collectResults();
    if (cfg_.fastTiming) {
        // Fold the peer shards in. touchedBlocks is a per-shard image
        // count — exact in rate mode (disjoint regions), a slight
        // over-count in shared-footprint mode (a block both shards
        // touched has an image in each); part of the documented
        // divergence contract, like everything below.
        for (auto &peer : peers_)
            mergeResultsInto(results, peer->collectResults());
        results.fastTiming = true;
        results.ftShards = shardCount_;
        results.ftQuantumEpochs = cfg_.fastTimingQuantumEpochs;
        results.ftBarriers = ft_.barriers;
        results.ftClockSkewMax = ft_.clockSkewMax;
        results.ftVersionMerges = ft_.versionMerges;
    }
    return results;
}

SystemResults
System::collectResults()
{
    SystemResults results;
    for (const auto &core : cores_) {
        results.instructions += core.instructions;
        results.cycles = std::max(results.cycles, core.clock);
    }
    results.ipc = results.cycles
                      ? static_cast<double>(results.instructions) /
                            static_cast<double>(results.cycles)
                      : 0.0;
    results.llcMisses = missCount_;
    results.writebacks = writebacks_;
    results.llc = llc_.stats();
    results.aliasPinEvents = llc_.stats().aliasPinned;
    results.dram = dram_.stats();
    results.mem = controller_->stats();
    results.mem.encodeCalls = encodeMemo_->lookups();
    results.mem.encodeMemoHits = encodeMemo_->hits();
    results.mem.schemeTrials = encodeMemo_->schemeTrials();
    results.vuln = controller_->vulnLog();
    results.errors = controller_->errorLog();
    results.adaptive = controller_->adaptiveStats();
    results.everUncompressedBlocks = everUncompressed_.size();

    // Footprint actually touched: distinct blocks with a DRAM image.
    results.touchedBlocks = controller_->imageBlockCount();
    for (const auto &core : cores_) {
        results.poolBlockForCalls += core.gen->pool().blockForCalls();
        results.poolContentCacheHits +=
            core.gen->pool().contentCacheHits();
        results.poolContentCacheMisses +=
            core.gen->pool().contentCacheMisses();
    }
    results.eccRegionBytes = 0;
    if (auto *coper = dynamic_cast<CopErController *>(controller_.get())) {
        results.eccRegionBytes = coper->storageBytesHighWater();
        results.eccRegionBytesNoDealloc = coper->storageBytesNoDealloc();
        results.everUncompressedBlocks =
            coper->everIncompressibleBlocks();
    }
    return results;
}

void
System::mergeResultsInto(SystemResults &into, const SystemResults &peer)
{
    // Counter-wise sum of one peer shard's results (fast-timing mode
    // only — faults are forbidden there, so the error log stays all
    // zero and is not merged). Cycles take the max — the run is as
    // long as its slowest shard — and the IPC is recomputed over the
    // merged totals.
    into.instructions += peer.instructions;
    into.cycles = std::max(into.cycles, peer.cycles);
    into.llcMisses += peer.llcMisses;
    into.writebacks += peer.writebacks;
    into.aliasPinEvents += peer.aliasPinEvents;

    into.llc.hits += peer.llc.hits;
    into.llc.misses += peer.llc.misses;
    into.llc.evictions += peer.llc.evictions;
    into.llc.dirtyEvictions += peer.llc.dirtyEvictions;
    into.llc.aliasPinned += peer.llc.aliasPinned;
    into.llc.setOverflows += peer.llc.setOverflows;
    into.llc.spillHits += peer.llc.spillHits;

    into.dram.reads += peer.dram.reads;
    into.dram.writes += peer.dram.writes;
    into.dram.rowHits += peer.dram.rowHits;
    into.dram.rowMisses += peer.dram.rowMisses;
    into.dram.rowConflicts += peer.dram.rowConflicts;
    into.dram.refreshStalls += peer.dram.refreshStalls;
    into.dram.refreshStallsCas += peer.dram.refreshStallsCas;
    into.dram.totalReadLatency += peer.dram.totalReadLatency;
    into.dram.totalWriteLatency += peer.dram.totalWriteLatency;
    into.dram.readBeats += peer.dram.readBeats;
    into.dram.writeBeats += peer.dram.writeBeats;
    into.dram.beatsSaved += peer.dram.beatsSaved;
    into.dram.busBusyCycles += peer.dram.busBusyCycles;
    into.dram.busTurnarounds += peer.dram.busTurnarounds;
    into.dram.ambientStallCycles += peer.dram.ambientStallCycles;
    into.dram.ambientRowCloses += peer.dram.ambientRowCloses;
    into.dram.readLatency.merge(peer.dram.readLatency);
    into.dram.writeLatency.merge(peer.dram.writeLatency);

    into.mem.reads += peer.mem.reads;
    into.mem.writes += peer.mem.writes;
    into.mem.protectedWrites += peer.mem.protectedWrites;
    into.mem.unprotectedWrites += peer.mem.unprotectedWrites;
    into.mem.aliasRejects += peer.mem.aliasRejects;
    into.mem.metaReads += peer.mem.metaReads;
    into.mem.metaWrites += peer.mem.metaWrites;
    into.mem.metaCacheHits += peer.mem.metaCacheHits;
    into.mem.metaCacheMisses += peer.mem.metaCacheMisses;
    for (size_t i = 0; i < into.mem.schemeWrites.size(); ++i)
        into.mem.schemeWrites[i] += peer.mem.schemeWrites[i];
    into.mem.encodeCalls += peer.mem.encodeCalls;
    into.mem.encodeMemoHits += peer.mem.encodeMemoHits;
    into.mem.schemeTrials += peer.mem.schemeTrials;

    for (size_t i = 0; i < into.vuln.byClass.size(); ++i) {
        into.vuln.byClass[i].reads += peer.vuln.byClass[i].reads;
        into.vuln.byClass[i].totalCycles +=
            peer.vuln.byClass[i].totalCycles;
    }

    into.adaptive.slotsReclaimed += peer.adaptive.slotsReclaimed;
    into.adaptive.demotions += peer.adaptive.demotions;
    into.adaptive.victimEvictions += peer.adaptive.victimEvictions;
    into.adaptive.releasedBlocks += peer.adaptive.releasedBlocks;
    into.adaptive.releasedBlocksHighWater +=
        peer.adaptive.releasedBlocksHighWater;

    into.everUncompressedBlocks += peer.everUncompressedBlocks;
    into.touchedBlocks += peer.touchedBlocks;
    into.eccRegionBytes += peer.eccRegionBytes;
    into.eccRegionBytesNoDealloc += peer.eccRegionBytesNoDealloc;
    into.poolBlockForCalls += peer.poolBlockForCalls;
    into.poolContentCacheHits += peer.poolContentCacheHits;
    into.poolContentCacheMisses += peer.poolContentCacheMisses;

    into.ipc = into.cycles
                   ? static_cast<double>(into.instructions) /
                         static_cast<double>(into.cycles)
                   : 0.0;
}

} // namespace cop
