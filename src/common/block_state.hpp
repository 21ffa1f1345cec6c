/**
 * @file
 * BlockState: everything the simulator keeps per data block, in one
 * record of one table. A System owns one BlockTable and hands it to
 * every core's BlockContentPool (content versions) and to its memory
 * controller (how and at which version each block is stored, write
 * times), so an L3 fill, its oracle check and a dirty
 * victim's writeback each touch one record instead of probing a
 * separate table per layer. A pool or controller used on its own keeps
 * a private table through the same BlockTableRef.
 */

#ifndef COP_COMMON_BLOCK_STATE_HPP
#define COP_COMMON_BLOCK_STATE_HPP

#include "common/cache_block.hpp"
#include "common/flat_map.hpp"

namespace cop {

/** What a block's record holds of its copy in DRAM. */
enum class Stored : u8 {
    /**
     * Never stored, or dropped by an alias-reject recovery (which
     * keeps the version and write time, so the next read re-runs first
     * touch).
     */
    Nothing,
    /**
     * The stored bits are in the controller's image side table (fault
     * injection only: MemoryController::imageOf).
     */
    Image,
    /**
     * Stored compressed and protected (COP family), with fault
     * injection off: nothing can corrupt the copy, so it is a function
     * of the address and storedVersion and the record keeps no bits of
     * it (DESIGN.md section 5).
     */
    Protected,
    /** As Protected, for a block stored as plain data (raw). */
    Raw,
};

/**
 * Per-block record: a 32-byte slot with its key, plus 1 control byte.
 * No copy of the block's bits: with fault injection off a DRAM copy is
 * the content at storedVersion, which functional memory regenerates,
 * and with it on the controller keeps the image in a side table.
 */
struct BlockState
{
    /** Cycle of the last write (the vulnerability clock's origin). */
    Cycle lastWrite = 0;
    /** Content version: stores to the block so far. */
    u32 version = 0;
    /** Content version of the DRAM copy (the version last stored). */
    u32 storedVersion = 0;
    /** COP-ER: the region entry a raw block's pointer names. */
    u32 entry = 0;
    /** How the block is stored; see Stored. */
    Stored stored = Stored::Nothing;
    /** Some fill of the block came back uncompressed (System). */
    bool everUncompressed = false;
    /** COP-ER stored the block through a region entry at least once. */
    bool everIncompressible = false;
};

using BlockTable = FlatMap<BlockState>;
static_assert(sizeof(BlockTable::value_type) == 32);

/**
 * The block table a pool or controller works on: its own private one
 * until share() points it at a System's shared table. Must be shared
 * before first use; non-copyable, since a copy would alias the table.
 */
class BlockTableRef
{
  public:
    BlockTableRef() = default;
    BlockTableRef(const BlockTableRef &) = delete;
    BlockTableRef &operator=(const BlockTableRef &) = delete;

    void
    share(BlockTable &table)
    {
        COP_ASSERT(own_.empty());
        table_ = &table;
    }

    BlockTable &operator*() const { return *table_; }
    BlockTable *operator->() const { return table_; }

  private:
    BlockTable own_;
    BlockTable *table_ = &own_;
};

} // namespace cop

#endif // COP_COMMON_BLOCK_STATE_HPP
