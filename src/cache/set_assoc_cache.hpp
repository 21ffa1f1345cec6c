/**
 * @file
 * Set-associative write-back cache model used as the shared L3/LLC.
 * Besides the usual tag/LRU machinery it carries the two per-line state
 * bits COP adds (paper Sections 3.1 and 3.3):
 *
 *  - `alias`: the line is an incompressible alias and must never be
 *    written back to DRAM; it is pinned in the cache and excluded from
 *    victim selection. If every way of a set is pinned, the set
 *    overflows into a spill list modelling the paper's linked-list
 *    overflow region in DRAM.
 *  - `wasUncompressed`: the block was stored uncompressed in DRAM when
 *    read (COP-ER uses this on writeback to decide whether an ECC-region
 *    entry already exists).
 */

#ifndef COP_CACHE_SET_ASSOC_CACHE_HPP
#define COP_CACHE_SET_ASSOC_CACHE_HPP

#include <functional>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace cop {

/** Cache geometry and access latency. */
struct CacheConfig
{
    u64 sizeBytes = 4ULL << 20; ///< Table 1: 4 MB L3.
    unsigned ways = 16;
    Cycle latency = 34;

    bool operator==(const CacheConfig &) const = default;

    u64 sets() const { return sizeBytes / kBlockBytes / ways; }

    void
    validate() const
    {
        if (ways == 0 || sizeBytes == 0)
            COP_FATAL("cache geometry must be nonzero");
        const u64 s = sets();
        if (s == 0 || (s & (s - 1)) != 0)
            COP_FATAL("cache set count must be a nonzero power of two");
    }
};

/** Per-line metadata visible to the memory controller. */
struct CacheLineState
{
    bool dirty = false;
    bool alias = false;           ///< Pinned: not allowed in DRAM.
    bool wasUncompressed = false; ///< COP-ER: entry exists in ECC region.
};

/** A line pushed out of the cache by an insert. */
struct CacheEviction
{
    bool valid = false;
    Addr addr = 0;
    CacheLineState state;
};

/** Aggregate cache statistics. */
struct CacheStats
{
    u64 hits = 0;
    u64 misses = 0;
    u64 evictions = 0;
    u64 dirtyEvictions = 0;
    u64 aliasPinned = 0;  ///< Lines currently pinned as aliases.
    u64 setOverflows = 0; ///< Inserts that spilled a pinned set.
    u64 spillHits = 0;    ///< Lookups served from a spill list.

    double
    missRate() const
    {
        const u64 n = hits + misses;
        return n ? static_cast<double>(misses) / n : 0.0;
    }
};

/**
 * The cache model. Tag-only (data contents live in the simulator's
 * functional memory); true-LRU replacement.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &cfg = CacheConfig{});

    const CacheConfig &config() const { return cfg_; }

    /**
     * Look up a block; on a hit the line is touched (LRU) and marked
     * dirty if @p is_write.
     * @return true on hit (including spill-list hits).
     */
    bool access(Addr block_addr, bool is_write);

    /** Non-destructive presence check (no LRU update). */
    bool probe(Addr block_addr) const;

    /**
     * Decides whether a dirty victim may leave the cache. Returning
     * false pins the line as an incompressible alias (paper Section
     * 3.1: the encoder "rejects writebacks of these blocks, requiring
     * them to be kept in the LLC with the alias bit set").
     */
    using EvictFilter = std::function<bool(Addr, const CacheLineState &)>;

    /**
     * Install a block (after a miss). The victim skips alias-pinned
     * lines; if every way is pinned, the new line goes to the set's
     * spill list (modelling the DRAM overflow region) and the returned
     * eviction is empty.
     *
     * @param can_evict optional filter consulted for dirty victims; a
     *        rejected victim is pinned (alias bit) and the next-LRU
     *        line is tried instead.
     * @param installed when non-null, receives a pointer to the newly
     *        installed line's state (valid until the next structural
     *        change), saving the findState lookup callers on the miss
     *        path would otherwise re-do.
     */
    CacheEviction insert(Addr block_addr, bool dirty,
                         const EvictFilter &can_evict = nullptr,
                         CacheLineState **installed = nullptr);

    /** Per-line state bits (line must be resident). */
    CacheLineState *findState(Addr block_addr);

    /** Pin or unpin a resident line as an incompressible alias. */
    void setAlias(Addr block_addr, bool alias);

    /**
     * Same, through a state pointer previously returned by insert or
     * findState — keeps the aliasPinned gauge right without another
     * set scan.
     */
    void setAlias(CacheLineState &state, bool alias);

    /** Remove a resident line without writeback (for tests/drain). */
    void invalidate(Addr block_addr);

    /** Collect and clear all dirty lines (end-of-run drain). */
    std::vector<CacheEviction> drainDirty();

    const CacheStats &stats() const { return stats_; }

  private:
    struct Line
    {
        bool valid = false;
        Addr tag = 0;
        u64 lru = 0;
        CacheLineState state;
    };

    /** Overflowed (spilled) blocks of one set, modelling the list. */
    using SpillList = std::vector<std::pair<Addr, CacheLineState>>;

    u64 setIndex(Addr block_addr) const;
    /** First way of a set in the flat line array. */
    Line *setBase(u64 set) { return lines_.data() + set * cfg_.ways; }
    const Line *
    setBase(u64 set) const
    {
        return lines_.data() + set * cfg_.ways;
    }
    Line *lookup(Addr block_addr);
    const Line *lookup(Addr block_addr) const;

    CacheConfig cfg_;
    /**
     * All lines in one flat array (sets x ways, set-major) — one
     * allocation, one indirection on the hot lookup path instead of a
     * per-set vector hop.
     */
    std::vector<Line> lines_;
    std::vector<SpillList> spill_;
    u64 setMask_ = 0;
    u64 clock_ = 0;
    CacheStats stats_;
};

} // namespace cop

#endif // COP_CACHE_SET_ASSOC_CACHE_HPP
