/**
 * @file
 * Tree pseudo-LRU replacement state for small set-associative software
 * caches (the encode memo). Three bits describe a
 * 4-way set: the root picks the stale pair, one bit per pair picks the
 * stale way inside it. touch() repoints every bit on the accessed
 * way's path away from it — the classic hardware PLRU update — so the
 * victim is always a way not on the most recent access path. Cheap
 * (one byte per set, no timestamps) and fully deterministic.
 */

#ifndef COP_COMMON_PLRU_HPP
#define COP_COMMON_PLRU_HPP

#include "common/types.hpp"

namespace cop {

/** 3-bit tree pseudo-LRU over a 4-way set. */
struct Plru4
{
    /** bit0: root (0 = left pair stale), bit1/bit2: stale way in pair. */
    u8 bits = 0;

    /** Mark @p way (0..3) most recently used. */
    void
    touch(unsigned way)
    {
        if (way < 2) {
            bits |= 1;                       // right pair is now staler
            bits = (bits & ~u8{2}) | u8((way == 0 ? 1 : 0) << 1);
        } else {
            bits &= ~u8{1};                  // left pair is now staler
            bits = (bits & ~u8{4}) | u8((way == 2 ? 1 : 0) << 2);
        }
    }

    /** The way to evict next. */
    unsigned
    victim() const
    {
        if ((bits & 1) == 0)
            return (bits & 2) == 0 ? 0 : 1;
        return (bits & 4) == 0 ? 2 : 3;
    }
};

} // namespace cop

#endif // COP_COMMON_PLRU_HPP
