/**
 * @file
 * EncodeMemo: a content-keyed cache of CopCodec::encode results, plus
 * the codec perf counters (encode calls, memo hits, scheme trials).
 *
 * Why this cannot change simulated behaviour: encode is a pure function
 * of the 64 block bytes and the (immutable) codec configuration — the
 * codec holds no mutable state, the static hash is a constant, and the
 * encoder never looks at the address or the clock. The memo is 4-way
 * set-associative on a hash of the content (tree pseudo-LRU per set,
 * common/plru.hpp — the original direct-mapped table thrashed when two
 * hot contents hashed to one slot) but keyed on the FULL 64-byte
 * block: a way only answers when its stored key compares equal, so a
 * hash collision evicts rather than corrupts. See DESIGN.md.
 *
 * One memo per System (never shared across parallel workers), so grid
 * runs stay deterministic at every worker count.
 */

#ifndef COP_CORE_ENCODE_MEMO_HPP
#define COP_CORE_ENCODE_MEMO_HPP

#include <vector>

#include "common/plru.hpp"
#include "core/codec.hpp"

namespace cop {

/** Multiply-xor mix of the eight block words. */
inline u64
blockContentHash(const CacheBlock &data)
{
    u64 h = 0x9e3779b97f4a7c15ULL;
    for (unsigned w = 0; w < 8; ++w) {
        h ^= data.word64(w);
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
    }
    return h;
}

/** Content-keyed 4-way set-associative cache of encode results. */
class EncodeMemo
{
  public:
    static constexpr unsigned kWays = 4;

    /**
     * @param entries Total capacity; sets = entries / kWays, rounded up
     *        to a power of two. 0 makes the memo counting-only: every
     *        encode runs the codec, but the perf counters still
     *        accumulate.
     */
    explicit EncodeMemo(unsigned entries)
    {
        if (entries > 0) {
            unsigned sets = 1;
            while (sets * kWays < entries)
                sets <<= 1;
            sets_.resize(sets);
            mask_ = sets - 1;
        }
    }

    /**
     * Encode @p data through @p codec, serving repeats of identical
     * content from the cache. The returned reference is invalidated by
     * the next encode() call.
     */
    const CopEncodeResult &
    encode(const CopCodec &codec, const CacheBlock &data)
    {
        ++lookups_;
        if (sets_.empty()) {
            scratch_ = codec.encode(data);
            schemeTrials_ += scratch_.schemeTrials;
            return scratch_;
        }
        Set &set = sets_[blockContentHash(data) & mask_];
        unsigned way = kWays;
        for (unsigned w = 0; w < kWays; ++w) {
            Entry &e = set.ways[w];
            if (e.valid && e.key == data) {
                ++hits_;
                set.plru.touch(w);
                return e.result;
            }
            if (way == kWays && !e.valid)
                way = w;
        }
        if (way == kWays) {
            way = set.plru.victim();
            ++conflictEvictions_;
        }
        Entry &e = set.ways[way];
        e.valid = true;
        e.key = data;
        e.result = codec.encode(data);
        schemeTrials_ += e.result.schemeTrials;
        set.plru.touch(way);
        return e.result;
    }

    /** Total entry capacity (0 = counting-only). */
    unsigned capacity() const
    {
        return static_cast<unsigned>(sets_.size()) * kWays;
    }

    u64 lookups() const { return lookups_; }
    u64 hits() const { return hits_; }
    u64 schemeTrials() const { return schemeTrials_; }
    /** Misses that displaced a valid, differently-keyed entry. */
    u64 conflictEvictions() const { return conflictEvictions_; }

  private:
    struct Entry
    {
        bool valid = false;
        CacheBlock key;
        CopEncodeResult result;
    };

    struct Set
    {
        Entry ways[kWays];
        Plru4 plru;
    };

    std::vector<Set> sets_;
    u64 mask_ = 0;
    u64 lookups_ = 0;
    u64 hits_ = 0;
    u64 schemeTrials_ = 0;
    u64 conflictEvictions_ = 0;
    /** Result holder for the counting-only (uncached) mode. */
    CopEncodeResult scratch_;
};

} // namespace cop

#endif // COP_CORE_ENCODE_MEMO_HPP
