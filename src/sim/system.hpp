/**
 * @file
 * The interval performance simulator (paper Section 4): a 4-core system
 * with a shared L3 backed by one of the memory-controller variants over
 * the DDR3-1600 DRAM model. Execution is epoch-structured — compute
 * phases at the per-benchmark perfect-L3 IPC, punctuated by bursts of
 * overlappable L3 misses whose exposed latency the memory system
 * determines. SPEC benchmarks run in rate mode (one copy per core);
 * PARSEC profiles share one footprint, as in the paper.
 */

#ifndef COP_SIM_SYSTEM_HPP
#define COP_SIM_SYSTEM_HPP

#include <memory>
#include <string>
#include <vector>

#include "cache/set_assoc_cache.hpp"
#include "core/encode_counter.hpp"
#include "mem/controller.hpp"
#include "reliability/live_injector.hpp"
#include "stats/stats_registry.hpp"
#include "workloads/trace_gen.hpp"

namespace cop {

/** Which protection scheme the memory controller implements. */
enum class ControllerKind : u8 {
    Unprotected,
    EccDimm,
    EccRegion, ///< The paper's "ECC Reg." baseline.
    Cop4,
    Cop8,
    CopEr,
    CopErNaive, ///< Section 3.3's naive COP-ER (full-size region).
};

const char *controllerKindName(ControllerKind k);

/**
 * Every full-system setting except the two run attachments of
 * SystemConfig, with a compiler-generated operator== so that two equal
 * parameter sets can be recognised as the same simulation (sameCell in
 * sim/runner.hpp) without a hand-kept field list.
 */
struct SystemParams
{
    unsigned cores = 4;
    CacheConfig llc{4ULL << 20, 16, 34};
    DramConfig dram{};
    ControllerKind kind = ControllerKind::Unprotected;
    Cycle decodeLatency = 4; ///< COP decode/decompress adder (Section 4).
    /**
     * Metadata cache modelling the L3 share ECC blocks occupy (the
     * paper caches ECC metadata in the 4 MB L3; half of it is a fair
     * steady-state share for the ECC-heavy baseline).
     */
    u64 metaCacheBytes = 2ULL << 20;
    /** Epochs to simulate per core. */
    u64 epochsPerCore = 20000;
    /**
     * Cross-check every fill against functional memory — an end-to-end
     * invariant over encode -> store -> decode. With fault injection
     * enabled it doubles as the ground-truth SDC oracle: a mismatching
     * fill with no raised error is counted as silent corruption
     * instead of aborting the run.
     */
    bool verifyData = true;
    /**
     * Section 3.1's alternative alias policy: test every store's new
     * content at LLC-write time and set the alias bit immediately,
     * instead of discovering the alias at eviction.
     */
    bool proactiveAliasCheck = false;
    u64 seedSalt = 0;
    /** Live fault injection + error recovery (off by default). */
    FaultConfig fault;
    /** Completed epochs (across cores) between trace snapshots. */
    u64 traceStatsEpochInterval = 256;
    /**
     * Adaptive ECC-region capacity: metadata blocks whose coverage no
     * longer needs them (an ECC Reg. entry group whose blocks are all
     * compressible; a COP-ER entry block that drained to empty) are
     * released to the data free-list, with a demotion path (victim
     * eviction through the writeback machinery) when they are needed
     * back. Off by default — every scheme's results are byte-identical
     * to builds without the mode. Inert for schemes without an ECC
     * region (Unprotected / ECC DIMM / COP / COP-8B).
     */
    bool adaptiveEccCapacity = false;
    /**
     * Shard budget of the fast-timing mode (below): the run splits
     * into min(simThreads, cores) concurrent shards; 0 resolves to the
     * hardware concurrency. Without fastTiming the only valid value is
     * 1 — the exact run is serial, and any other value is fatal. Exact
     * parallelism lives at grid level (the runner's --jobs).
     */
    unsigned simThreads = 1;
    /**
     * Relaxed-consistency fast-timing mode (opt-in). Off — the
     * default — the run is the exact serial oracle. On, it is
     * partitioned into min(simThreads, cores) shards that each own a
     * subset of the cores plus a private DRAM timing model, an LLC
     * way-partition and a metadata-cache share, and run truly
     * concurrently; shards synchronize only at a quantum barrier every
     * fastTimingQuantumEpochs epochs per core, where cross-shard
     * effects (bus contention, shared-footprint content versions) are
     * reconciled approximately. Results are deterministic (two fast
     * runs are byte-identical to each other) but NOT byte-identical to
     * the oracle; the divergence is measured and emitted in the
     * results JSON (ft_* fields), never hidden. Incompatible with
     * fault injection (fatal) — the error-recovery paths are defined
     * against the exact interleaving. See DESIGN.md §8.
     */
    bool fastTiming = false;
    /**
     * Epochs per core between fast-timing quantum barriers. Smaller
     * quanta track cross-shard contention more closely; larger quanta
     * amortise the barrier. 64 epochs ≈ the reconciliation cadence at
     * which bus-load divergence stays within a couple of percent on
     * the default profiles.
     */
    u64 fastTimingQuantumEpochs = 64;

    bool operator==(const SystemParams &) const = default;
};

/** Full-system configuration (defaults reproduce Table 1). */
struct SystemConfig : SystemParams
{
    /**
     * JSONL stats-trace sink (observability layer). Empty (the
     * default) disables tracing entirely; with tracing off a run's
     * stdout tables and results JSON are byte-identical to a run of
     * the same configuration that never had the field. When set, the
     * System drains its StatsRegistry into this file: one snapshot of
     * per-counter deltas and histogram summaries every
     * traceStatsEpochInterval completed epochs plus a final one.
     * Validate / tabulate with scripts/agg_stats.py.
     */
    std::string traceStatsPath;
    /**
     * Per-core epoch source factory. Empty (the default) runs the
     * synthetic TraceGenerator; set it to replay captured traces
     * (makeTraceReplayFactory in trace/replay.hpp); the System calls
     * it once per core at construction. When set, the System also
     * exports trace.* gauges (epochs/accesses read and replayed) into
     * the stats registry; the results JSON is untouched, so a replay
     * of a captured run stays byte-comparable to the run that captured
     * it (DESIGN.md §9).
     */
    EpochSourceFactory epochSource;

    // --- compatibility names (copbench) ------------------------------
    // The encode memo and the functional-memory content cache are gone;
    // copbench still reads their sizes. Read-only, always 0. The
    // bandwidth-compression mode is gone too; copbench still rejects it.
    static constexpr unsigned encodeMemoEntries = 0;
    static constexpr unsigned contentCacheEntries = 0;
    static constexpr bool bandwidthCompression = false;
};

/** Aggregate results of one run. */
struct SystemResults
{
    double ipc = 0; ///< Total instructions / slowest-core cycles.
    u64 instructions = 0;
    Cycle cycles = 0;
    u64 llcMisses = 0;
    u64 writebacks = 0;
    u64 aliasPinEvents = 0;
    CacheStats llc;
    DramStats dram;
    MemStats mem;
    VulnLog vuln;
    /** Blocks that were ever stored uncompressed in DRAM. */
    u64 everUncompressedBlocks = 0;
    /** Distinct data blocks touched. */
    u64 touchedBlocks = 0;
    /** COP-ER ECC region bytes at high water (0 for other schemes). */
    u64 eccRegionBytes = 0;
    /**
     * COP-ER ECC region bytes under Figure 12's no-deallocation
     * assumption (an entry for every ever-incompressible block).
     */
    u64 eccRegionBytesNoDealloc = 0;
    /** Error-recovery bookkeeping (all zero unless faults injected). */
    ErrorLog errors;
    /** Adaptive-capacity accounting (all zero unless the mode is on). */
    MemoryController::AdaptiveStats adaptive;
    /** Functional-memory perf counter (summed over the core pools). */
    u64 poolBlockForCalls = 0;
    /** Compatibility names (copbench assigns them); not reported. */
    u64 poolContentCacheHits = 0;
    u64 poolContentCacheMisses = 0;
    // --- fast-timing divergence accounting (all zero when off) --------
    /** The run used the relaxed-consistency fast-timing mode. */
    bool fastTiming = false;
    /** Shards the run was partitioned into (0 when fastTiming off). */
    unsigned ftShards = 0;
    /** Quantum size (epochs per core per barrier interval). */
    u64 ftQuantumEpochs = 0;
    /** Quantum barriers crossed. */
    u64 ftBarriers = 0;
    /** Max cycle skew between shard clocks seen at any barrier. */
    Cycle ftClockSkewMax = 0;
    /** Shared-footprint version entries merged across shards. */
    u64 ftVersionMerges = 0;
};

/** One simulated system instance for one benchmark. */
class System
{
  public:
    System(const WorkloadProfile &profile, const SystemConfig &cfg);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Run the configured number of epochs and report. */
    SystemResults run();

    MemoryController &controller() { return *controller_; }
    SetAssocCache &llc() { return llc_; }
    /** The observability registry every subsystem registered into. */
    StatsRegistry &statsRegistry() { return statsRegistry_; }
    /**
     * Shards a fast-timing run of @p cfg will use: validates the
     * configuration (fatal on fault injection, <2 cores, or <2
     * resolved threads — fast timing with one shard would only add
     * approximation without speedup) and returns min(threads, cores).
     * With fastTiming off it returns 1, and simThreads != 1 is fatal.
     */
    static unsigned fastShardCount(const SystemConfig &cfg);

  private:
    /**
     * Shard constructor: builds shard @p shard_index of
     * @p shard_count. The public constructor delegates here with
     * (0, fastShardCount(cfg)); shard 0 — the owner — constructs the
     * peer shards itself. Each shard owns cores c ≡ shard_index
     * (mod shard_count), a private DRAM system, an LLC way-partition
     * and a metaCacheBytes/shard_count metadata share.
     */
    System(const WorkloadProfile &profile, const SystemConfig &cfg,
           unsigned shard_index, unsigned shard_count);

    struct Core
    {
        std::unique_ptr<EpochSource> gen;
        /** Cached gen->pool() — keeps poolFor's hot path devirtualised. */
        BlockContentPool *pool = nullptr;
        Cycle clock = 0;
        u64 instructions = 0;
        u64 epochsDone = 0;
    };

    BlockContentPool &poolFor(Addr addr);
    void runEpoch(Core &core, const Epoch &epoch);
    /**
     * The exact run path: the furthest-behind merge loop over all
     * cores on the calling thread.
     */
    void runSerial(std::ofstream &trace);
    /** LLC way-partition for one fast-timing shard (sets constant). */
    static CacheConfig fastLlcConfig(const CacheConfig &llc,
                                     unsigned shard_count);
    /**
     * Run this shard's owned cores up to @p target_epochs each — the
     * serial furthest-behind loop restricted to cores c ≡ shardIndex_
     * (mod shardCount_).
     */
    void runFastQuantum(u64 target_epochs);
    /**
     * Owner-side cross-shard reconciliation at one quantum barrier:
     * ambient bus load from the other shards' busBusyCycles deltas,
     * clock-skew tracking, and shared-footprint version merging.
     */
    void reconcileShards(u64 quantum_cycles_hint);
    /** The fast-timing run path: shard threads + quantum barriers. */
    void runFastTiming(std::ofstream &trace);
    /** Assemble this shard's SystemResults (the serial run() tail). */
    SystemResults collectResults();
    /** Fold a peer shard's results into @p into (fast-timing merge). */
    static void mergeResultsInto(SystemResults &into,
                                 const SystemResults &peer);
    /** Hook every subsystem's counters into statsRegistry_. */
    void registerAllStats();
    /** Highest core clock reached (trace snapshot timestamps). */
    Cycle maxCoreClock() const;
    /** Apply the proactive alias policy to a freshly-written line. */
    void proactiveAliasCheck(Addr addr);
    /** Handle an L3 miss: fill from memory, install, write back victim. */
    Cycle handleMiss(Addr addr, bool is_write, Cycle now);
    /**
     * Write back a dirty victim. @p data is the victim's content when
     * the caller already produced it (the evict filter's block, threaded
     * through so it is not regenerated); null regenerates from the pool.
     */
    void performWriteback(const CacheEviction &ev, Cycle now,
                          const CacheBlock *data = nullptr);

    const WorkloadProfile &profile_;
    SystemConfig cfg_;
    StatsRegistry statsRegistry_;
    /**
     * The one per-block table (DESIGN.md §2), shared by every core's
     * pool and the controller; declared before them so it outlives
     * both.
     */
    BlockTable blocks_;
    DramSystem dram_;
    SetAssocCache llc_;
    EncodeCounter encodes_;
    std::unique_ptr<MemoryController> controller_;
    std::unique_ptr<LiveInjector> injector_;
    std::vector<Core> cores_;
    /** Records whose everUncompressed flag this System set. */
    u64 everUncompressedBlocks_ = 0;
    u64 writebacks_ = 0;
    u64 missCount_ = 0;
    /**
     * Persistent eviction filter + probe scratch: constructing a
     * std::function per miss heap-allocates (the captures exceed the
     * small-buffer size), so one is built in the constructor and the
     * probe state lives here, reset before each insert.
     */
    SetAssocCache::EvictFilter evictFilter_;
    bool probed_ = false;
    Addr probedAddr_ = 0;
    CacheBlock probedData_;

    // --- fast-timing shard state (inert when fastTiming is off) -------
    /** This System's shard index; the owner (public ctor) is shard 0. */
    unsigned shardIndex_ = 0;
    /** Total shards; 1 for every non-fast run. */
    unsigned shardCount_ = 1;
    /** Peer shards (owner only; peers see an empty vector). */
    std::vector<std::unique_ptr<System>> peers_;
    /** Owner-side divergence accounting across the whole run. */
    struct FastTimingState
    {
        u64 barriers = 0;
        Cycle clockSkewMax = 0;
        u64 versionMerges = 0;
    };
    FastTimingState ft_;
    /** busBusyCycles at the previous barrier (delta computation). */
    Cycle lastBusBusy_ = 0;
    /** DRAM reads+writes at the previous barrier (row-close rate). */
    u64 lastAccesses_ = 0;
    /** max core clock at the previous barrier (quantum cycle span). */
    Cycle lastGlobalClock_ = 0;
    /** Owner's merged view of shared-footprint block versions. */
    FlatMap<u32> globalVersions_;
    /** Global epochs already snapshot to the stats trace (fast mode). */
    u64 lastSnapshotEpochs_ = 0;
};

/**
 * Factory for the memory-controller variants. @p encodes (caller-owned,
 * may be null) counts the COP-family controllers' encodes.
 */
std::unique_ptr<MemoryController>
makeController(ControllerKind kind, DramSystem &dram,
               MemoryController::ContentSource content,
               Cycle decode_latency, u64 meta_cache_bytes,
               EncodeCounter *encodes = nullptr);

} // namespace cop

#endif // COP_SIM_SYSTEM_HPP
