/**
 * @file
 * Trace synthesis: turns a WorkloadProfile into the epoch-structured L3
 * reference stream the interval performance model consumes (the paper's
 * Section 4 methodology: "references were divided into epochs, each
 * containing independent (overlappable) requests"), plus the functional
 * block-content pool that stands in for the Pin-captured data contents.
 */

#ifndef COP_WORKLOADS_TRACE_GEN_HPP
#define COP_WORKLOADS_TRACE_GEN_HPP

#include <functional>
#include <memory>
#include <vector>

#include "common/flat_map.hpp"
#include "workloads/profile.hpp"

namespace cop {

/**
 * Default blockFor content-cache slots per pool (~1.3 MB). Plenty for
 * the hot working set the trace generator clusters on (1/16th of the
 * footprint); SystemConfig::contentCacheEntries overrides.
 */
inline constexpr unsigned kDefaultContentCacheEntries = 1u << 14;

/**
 * Deterministic functional memory: the content of every block is a pure
 * function of (profile, address, version); stores bump the version.
 * The category of an address never changes — data structures keep their
 * type — so compressibility is stationary per benchmark, as in reality.
 *
 * blockFor is memoised through a direct-mapped cache keyed on
 * (addr, version): a repeated call for an unchanged block is a copy,
 * not a regeneration through the RNG. Because content is a pure
 * function of the key, the cache cannot change any result — only the
 * hit/miss counters observe it (see DESIGN.md "functional-memory
 * purity"). 0 entries disables caching but keeps the counters.
 */
class BlockContentPool
{
  public:
    explicit BlockContentPool(
        const WorkloadProfile &profile, u64 seed_salt = 0,
        unsigned cache_entries = kDefaultContentCacheEntries);

    /** Stationary data category of an address. */
    BlockCategory categoryOf(Addr block_addr) const;

    /**
     * Category for one uniform draw in [0,1): the CDF walk shared by
     * categoryOf (hashed-address draw) and sample (RNG draw).
     */
    BlockCategory categoryFromUniform(double u) const;

    /** Current content of a block. */
    CacheBlock blockFor(Addr block_addr) const
    {
        return blockForRef(block_addr);
    }

    /**
     * Current content of a block, without the copy. The reference is
     * valid until the next blockFor/blockForRef call on this pool (it
     * points into the content cache, or into a scratch slot when
     * caching is disabled).
     */
    const CacheBlock &blockForRef(Addr block_addr) const;

    /** Record a store: the block's content changes deterministically. */
    void bumpVersion(Addr block_addr);

    // --- fast-timing version reconciliation (sim/system.cpp) ----------
    /**
     * Start logging the addresses bumpVersion touches. The fast-timing
     * coordinator drains the log at each quantum barrier to merge the
     * shards' views of a shared footprint; off (the default) the log
     * costs nothing.
     */
    void enableBumpLog() { bumpLogEnabled_ = true; }

    /** Move out (and clear) the bump log; one entry per bumpVersion. */
    std::vector<Addr>
    drainBumpLog()
    {
        std::vector<Addr> out = std::move(bumpLog_);
        bumpLog_.clear();
        return out;
    }

    /** Current version of a block (0 when never written). */
    u32
    versionOf(Addr block_addr) const
    {
        if (versions_.empty())
            return 0;
        const auto it = versions_.find(block_addr);
        return it != versions_.end() ? it->second : 0;
    }

    /**
     * Force a block's version (fast-timing merge only: advance this
     * shard's view to the globally merged count). Does not touch the
     * content cache — the stale cached image, if any, is tolerated by
     * the fast-timing divergence contract and replaced on the next
     * version-keyed miss.
     */
    void setVersion(Addr block_addr, u32 version)
    {
        versions_[block_addr] = version;
    }

    /**
     * Generate the content of @p block_addr at an explicit @p version,
     * bypassing the version map, the content cache and every counter.
     * A pure function of immutable state (profile, seed, CDF).
     */
    CacheBlock generateAt(Addr block_addr, u32 version) const;

    const WorkloadProfile &profile() const { return profile_; }

    /**
     * Draw @p n i.i.d. blocks from the profile's mix — the sampling the
     * compressibility experiments (Figures 1, 4, 8, 9) use directly.
     */
    std::vector<CacheBlock> sample(unsigned n, u64 seed) const;

    /** Pre-size the version map for an expected store footprint. */
    void reserveVersions(u64 blocks) { versions_.reserve(blocks); }

    // --- perf observability (pool.* gauges, results JSON) -------------
    /** Total blockFor invocations (hot-path dedup regression metric). */
    u64 blockForCalls() const { return blockForCalls_; }
    /** blockFor calls served from the content cache. */
    u64 contentCacheHits() const { return contentCacheHits_; }
    u64
    contentCacheMisses() const
    {
        return blockForCalls_ - contentCacheHits_;
    }
    /** Version-map load-factor observability. */
    u64 versionMapEntries() const { return versions_.size(); }
    u64 versionMapSlots() const { return versions_.capacity(); }

  private:
    /** One direct-mapped content-cache slot. */
    struct CacheSlot
    {
        Addr addr = 0;
        u32 version = 0;
        bool valid = false;
        CacheBlock block;
    };

    u64 mixHash(Addr block_addr) const;

    const WorkloadProfile &profile_;
    u64 seed_;
    /** Cumulative mix distribution for category sampling. */
    std::array<double, kBlockCategories> cdf_{};
    FlatMap<u32> versions_;
    /**
     * blockFor is logically const; the cache and counters are not.
     * Allocated lazily on the first blockFor call — pools on cores
     * that never miss (or Systems built only to read config) skip the
     * multi-megabyte zero-fill entirely.
     */
    mutable std::vector<CacheSlot> cache_;
    u64 cacheSlots_ = 0;
    u64 cacheMask_ = 0;
    /** blockForRef return storage when the cache is disabled. */
    mutable CacheBlock scratch_;
    mutable u64 blockForCalls_ = 0;
    mutable u64 contentCacheHits_ = 0;
    /** Fast-timing merge support (see enableBumpLog). */
    bool bumpLogEnabled_ = false;
    std::vector<Addr> bumpLog_;
};

/** One L3 reference. */
struct TraceAccess
{
    Addr addr = 0;
    bool isWrite = false;
};

/** One interval-simulation epoch: compute, then overlappable misses. */
struct Epoch
{
    u64 instructions = 0;
    std::vector<TraceAccess> accesses;
};

/**
 * Replay-progress counters an EpochSource may expose (trace-driven
 * sources only; synthetic generators report none). The System exports
 * them as trace.* gauges so agg_stats.py --check can verify that every
 * epoch and access read off disk was replayed.
 */
struct ReplaySourceCounters
{
    u64 epochs = 0;
    u64 accesses = 0;
};

/**
 * One core's epoch stream plus the functional-memory pool backing its
 * address region — what the System consumes, whether the epochs come
 * from the synthetic TraceGenerator or from a captured trace
 * (TraceReplayGenerator in src/trace/). Implementations own a
 * BlockContentPool so the simulator's content/version machinery is
 * identical for both.
 */
class EpochSource
{
  public:
    virtual ~EpochSource() = default;

    EpochSource(const EpochSource &) = delete;
    EpochSource &operator=(const EpochSource &) = delete;

    /**
     * Produce the next epoch. The reference stays valid until the next
     * call on this source (buffers are reused — no per-epoch
     * allocation); copy-construct an Epoch to retain one. A source with
     * a finite stream is fatal on exhaustion — the System sizes
     * epochsPerCore to what the trace holds.
     */
    virtual const Epoch &next() = 0;

    /** Block content pool for this core's address region. */
    virtual BlockContentPool &pool() = 0;
    virtual const BlockContentPool &pool() const = 0;

    /** Replay counters, when this source reads a trace. */
    virtual bool
    replayCounters(ReplaySourceCounters &) const
    {
        return false;
    }

  protected:
    EpochSource() = default;
};

/**
 * Builds one EpochSource per core (SystemConfig::epochSource).
 * @p content_cache_entries sizes the source's BlockContentPool cache.
 */
using EpochSourceFactory = std::function<std::unique_ptr<EpochSource>(
    unsigned core, unsigned content_cache_entries)>;

/**
 * Pool seed salt for @p core_id under @p profile — the value
 * TraceGenerator bakes into its pool. Exposed so a trace replay can
 * construct a byte-identical functional memory for the same core.
 */
u64 contentPoolSalt(const WorkloadProfile &profile, unsigned core_id);

/**
 * Per-core epoch generator. SPEC benchmarks run in rate mode (each core
 * gets a disjoint copy of the footprint); PARSEC profiles share one
 * footprint across cores.
 */
class TraceGenerator : public EpochSource
{
  public:
    TraceGenerator(const WorkloadProfile &profile, unsigned core_id,
                   u64 seed_salt = 0,
                   unsigned content_cache_entries =
                       kDefaultContentCacheEntries);

    const Epoch &next() override;

    BlockContentPool &pool() override { return pool_; }
    const BlockContentPool &pool() const override { return pool_; }

    /** First byte address of this core's footprint region. */
    Addr regionBase() const { return base_; }

  private:
    Addr pickAddress();

    const WorkloadProfile &profile_;
    Rng rng_;
    Addr base_;
    u64 cursor_ = 0;
    BlockContentPool pool_;
    /** Reused next() buffer — avoids a heap round-trip per epoch. */
    Epoch epoch_;
};

} // namespace cop

#endif // COP_WORKLOADS_TRACE_GEN_HPP
