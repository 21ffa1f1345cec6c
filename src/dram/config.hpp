/**
 * @file
 * DRAM system configuration: the Table 1 memory organisation (2 channels,
 * 1 DIMM per channel, 2 ranks per DIMM, 8 chips per rank, 1600 MHz bus,
 * 8 GB total) and a DDR3-1600-class timing set. All timing values are
 * expressed in CPU cycles at the Table 1 core clock (3.2 GHz) so the
 * interval performance model and the DRAM model share one clock domain.
 */

#ifndef COP_DRAM_CONFIG_HPP
#define COP_DRAM_CONFIG_HPP

#include "common/types.hpp"

namespace cop {

/**
 * Row-buffer management policy. The paper's system (and the embedded-
 * ECC related work it cites) assumes open-row; closed-page is provided
 * for the row-policy ablation.
 */
enum class RowPolicy : u8 {
    Open,   ///< Rows stay open until a conflicting activate.
    Closed, ///< Auto-precharge after every column access.
};

/**
 * DRAM organisation and timing. Defaults model DDR3-1600 11-11-11 under
 * a 3.2 GHz core clock: one memory command clock (800 MHz) = 4 CPU
 * cycles.
 */
struct DramConfig
{
    // --- organisation (Table 1) ---
    unsigned channels = 2;
    unsigned ranksPerChannel = 2; ///< 1 DIMM x 2 ranks.
    unsigned banksPerRank = 8;
    u64 capacityBytes = 8ULL << 30;
    unsigned rowBytes = 8192; ///< 8 KB row buffer per bank.
    RowPolicy rowPolicy = RowPolicy::Open;

    // --- timing, in CPU cycles (1 memory clock = 4 CPU cycles) ---
    Cycle tRCD = 44;   ///< ACT -> CAS (11 mem clocks).
    Cycle tCL = 44;    ///< CAS -> first data (read).
    Cycle tCWL = 32;   ///< CAS -> first data (write, CWL 8).
    Cycle tRP = 44;    ///< PRE -> ACT.
    Cycle tRAS = 112;  ///< ACT -> PRE (28 mem clocks).
    Cycle tBURST = 16; ///< 8-beat burst at 1600 MT/s on a 64-bit bus.
    Cycle tWR = 48;    ///< Write recovery before PRE (12 mem clocks).
    Cycle tRTP = 24;   ///< Read -> PRE (6 mem clocks).
    Cycle tRRD = 24;   ///< ACT -> ACT, same rank (6 mem clocks).
    Cycle tFAW = 128;  ///< Four-activate window per rank (32 mem clocks).
    Cycle tCCD = 16;   ///< CAS -> CAS, same rank.
    Cycle tWTR = 16;   ///< Write burst end -> read CAS (4 mem clocks).
    Cycle tRTW = 8;    ///< Read->write bus turnaround gap (2 mem clocks).

    // --- refresh ---
    bool refreshEnabled = true;
    Cycle tREFI = 24960; ///< 7.8 us at 3.2 GHz.
    Cycle tRFC = 1120;   ///< 350 ns at 3.2 GHz.

    bool operator==(const DramConfig &) const = default;

    /** Total 64-byte blocks in the system. */
    u64 totalBlocks() const { return capacityBytes / kBlockBytes; }
    /** Blocks per row buffer. */
    unsigned blocksPerRow() const { return rowBytes / kBlockBytes; }
    /** Rows per bank, derived from capacity and organisation. */
    u64
    rowsPerBank() const
    {
        const u64 banks =
            static_cast<u64>(channels) * ranksPerChannel * banksPerRank;
        return capacityBytes / (banks * rowBytes);
    }

    void
    validate() const
    {
        if (channels == 0 || ranksPerChannel == 0 || banksPerRank == 0)
            COP_FATAL("DRAM organisation must be nonzero");
        if (rowBytes % kBlockBytes != 0)
            COP_FATAL("row size must be a multiple of the block size");
        if (capacityBytes % (static_cast<u64>(channels) * ranksPerChannel *
                             banksPerRank * rowBytes) != 0) {
            COP_FATAL("capacity must divide evenly into rows");
        }
    }
};

/** Decoded position of one block address. */
struct DramLocation
{
    unsigned channel;
    unsigned rank;
    unsigned bank;
    u64 row;
    unsigned column; ///< Block index within the row.
};

/**
 * Block-address interleaving. Low-order block bits map to channel (so
 * consecutive blocks stream across channels), then column, then bank,
 * then rank, with the row on top: row : rank : bank : column : channel.
 */
class AddressMap
{
  public:
    explicit AddressMap(const DramConfig &cfg) : cfg_(cfg) {}

    DramLocation
    decode(Addr addr) const
    {
        u64 block = addr / kBlockBytes;
        DramLocation loc;
        loc.channel = static_cast<unsigned>(block % cfg_.channels);
        block /= cfg_.channels;
        loc.column = static_cast<unsigned>(block % cfg_.blocksPerRow());
        block /= cfg_.blocksPerRow();
        loc.bank = static_cast<unsigned>(block % cfg_.banksPerRank);
        block /= cfg_.banksPerRank;
        loc.rank = static_cast<unsigned>(block % cfg_.ranksPerChannel);
        block /= cfg_.ranksPerChannel;
        loc.row = block;
        return loc;
    }

  private:
    DramConfig cfg_;
};

} // namespace cop

#endif // COP_DRAM_CONFIG_HPP
