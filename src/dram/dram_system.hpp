/**
 * @file
 * DramSystem: a DRAMSim2-inspired timing model of the Table 1 memory
 * system. Reservation-based rather than event-driven: each access is
 * scheduled against per-bank row-buffer state, per-rank activate
 * windows, and the per-channel data bus, in submission order. The model
 * captures the first-order effects COP's evaluation depends on — row
 * hits vs misses/conflicts, bank- and channel-level parallelism, bus
 * serialisation, and the extra contention ECC-region traffic creates.
 */

#ifndef COP_DRAM_DRAM_SYSTEM_HPP
#define COP_DRAM_DRAM_SYSTEM_HPP

#include <array>
#include <vector>

#include "dram/config.hpp"
#include "stats/histogram.hpp"
#include "stats/stats_registry.hpp"

namespace cop {

/** One memory request presented to the DRAM system. */
struct DramRequest
{
    Addr addr = 0;
    bool isWrite = false;
    Cycle arrival = 0;
    /**
     * Data beats this transfer occupies on the channel bus (1..8). A
     * full 64-byte block is 8 beats on the 64-bit bus; the bandwidth-
     * compression mode ships compressed blocks in fewer. Command timing
     * (ACT/CAS) is unaffected — only bus occupancy scales.
     */
    unsigned burstBeats = 8;
};

/** Timing outcome of one request. */
struct DramResult
{
    /** Cycle at which the last data beat transfers. */
    Cycle complete = 0;
    /** The access hit an open row. */
    bool rowHit = false;
    /** The access had to close another row first (conflict). */
    bool rowConflict = false;
};

/** Aggregate DRAM statistics. */
struct DramStats
{
    u64 reads = 0;
    u64 writes = 0;
    u64 rowHits = 0;
    u64 rowMisses = 0;
    u64 rowConflicts = 0;
    u64 refreshStalls = 0; ///< ACT commands delayed past a tRFC window.
    Cycle totalReadLatency = 0;
    /** Column commands (CAS) delayed past a tRFC window. */
    u64 refreshStallsCas = 0;
    Cycle totalWriteLatency = 0;
    /** Data beats actually transferred on the bus, by direction. */
    u64 readBeats = 0;
    u64 writeBeats = 0;
    /** Beats a full 8-beat burst would have used but a shortened one
     *  did not (8 - burstBeats summed over all accesses). */
    u64 beatsSaved = 0;
    /** Cycles the channel data buses spent transferring (all channels). */
    Cycle busBusyCycles = 0;
    /** Bus direction flips that imposed a tWTR/tRTW turnaround gap. */
    u64 busTurnarounds = 0;
    /**
     * Cycles added by the fast-timing ambient bus load (expected
     * contention from other shards' channels, see setAmbientBusLoad).
     * Always zero outside fast-timing mode — a divergence counter, not
     * a physical bus statistic, so it stays out of busBusyCycles and
     * its per-channel conservation identity.
     */
    Cycle ambientStallCycles = 0;
    /**
     * Row hits demoted to row conflicts by the fast-timing ambient
     * row-close model (expected row-buffer interference from other
     * shards' traffic, see setAmbientRowCloseRate). Always zero
     * outside fast-timing mode; a divergence counter like
     * ambientStallCycles.
     */
    u64 ambientRowCloses = 0;
    /** Per-access arrival-to-last-beat latency (simulated cycles). */
    Histogram readLatency;
    Histogram writeLatency;

    double
    rowHitRate() const
    {
        const u64 n = rowHits + rowMisses + rowConflicts;
        return n ? static_cast<double>(rowHits) / n : 0.0;
    }

    double
    avgReadLatency() const
    {
        return reads ? static_cast<double>(totalReadLatency) / reads : 0.0;
    }

    double
    avgWriteLatency() const
    {
        return writes ? static_cast<double>(totalWriteLatency) / writes
                      : 0.0;
    }
};

/**
 * The DRAM timing model. Open-row policy (rows stay open until a
 * conflicting activate), per-rank tRRD/tFAW tracking, optional refresh.
 *
 * Requests must be submitted in non-decreasing arrival order per
 * channel for the reservation model to be meaningful; the simulator's
 * global-clock scheduler guarantees this.
 */
class DramSystem
{
  public:
    explicit DramSystem(const DramConfig &cfg = DramConfig{});

    /** Schedule one access; returns its completion time. */
    DramResult access(const DramRequest &req);

    const DramConfig &config() const { return cfg_; }
    const DramStats &stats() const { return stats_; }
    void
    resetStats()
    {
        stats_ = DramStats{};
        for (auto &ch : channels_)
            ch.busBusy = 0;
    }

    /**
     * Register this DRAM system's counters and latency histograms into
     * @p reg under the "dram." namespace. The registry must not outlive
     * this object.
     */
    void registerStats(StatsRegistry &reg) const;

    /**
     * Fast-timing reconciliation hook (sim/system.cpp): model the bus
     * occupancy of the *other* shards' traffic as capacity sharing.
     * @p load is the external utilisation in [0, 1) — the coordinator
     * computes it from the other shards' busBusyCycles deltas at each
     * quantum barrier. Under it the shard owns only a (1 - load)
     * share of the memory system's service capacity, so every access's
     * arrival-to-data sojourn is stretched by a calibrated
     * processor-sharing factor derived from load / (1 - load) (gain
     * and saturation cap in the implementation, fitted against the
     * serial oracle — see DESIGN.md §8). This stands in for
     * the queueing the partitioned model no longer sees directly (bank
     * conflicts included, not just the bus). The stretch is counted in
     * DramStats::ambientStallCycles
     * (never in busBusyCycles, whose per-channel conservation identity
     * stays exact) so the approximation is reported, never hidden.
     * 0 (the default) is the exact model.
     */
    void setAmbientBusLoad(double load);

    /** The external bus utilisation currently modelled. */
    double ambientBusLoad() const { return ambientLoad_; }

    /**
     * Fast-timing reconciliation hook, companion to
     * setAmbientBusLoad(): model the *row-buffer* interference of the
     * other shards' traffic. @p rate is their access rate per bank per
     * cycle; a row that sat open for g cycles since this shard last
     * touched the bank survived that interference with probability
     * exp(-rate * g), so each would-be row hit is demoted to a row
     * conflict (precharge + activate, exactly what the shared model
     * would see with another core's row open) with the complementary
     * probability. The draw is a deterministic hash of
     * (address, arrival), keeping fast-timing runs reproducible.
     * Demotions are counted in DramStats::ambientRowCloses. 0 (the
     * default) disables the model.
     */
    void
    setAmbientRowCloseRate(double rate)
    {
        ambientCloseRate_ = rate > 0.0 ? rate : 0.0;
    }

    /**
     * Earliest cycle the addressed bank could issue the first command
     * of a new access (CAS on an open-row hit, ACT otherwise),
     * consulting the same per-rank tRRD/tFAW windows and refresh state
     * as access() — but const: no statistics are mutated.
     */
    Cycle bankReadyHint(Addr addr) const;

  private:
    struct Bank
    {
        bool rowOpen = false;
        u64 openRow = 0;
        Cycle casReady = 0; ///< Earliest next CAS.
        Cycle preReady = 0; ///< Earliest next PRE (tRAS/tWR respected).
        Cycle actReady = 0; ///< Earliest next ACT (after PRE done).
        Cycle lastUse = 0;  ///< Last arrival here (ambient row closes).
    };

    struct Rank
    {
        std::array<Cycle, 4> lastActs{}; ///< Rolling window for tFAW.
        unsigned actPtr = 0;
        u64 actCount = 0; ///< Activates issued so far (guards the window).
        Cycle lastAct = 0;
    };

    struct Channel
    {
        std::vector<Bank> banks;  ///< ranksPerChannel * banksPerRank.
        std::vector<Rank> ranks;
        Cycle busFree = 0;
        bool hasTransfer = false; ///< A burst has used this bus before.
        bool lastWasWrite = false; ///< Direction of the last burst.
        Cycle busBusy = 0; ///< Cycles this channel's bus transferred data.
    };

    Bank &bankAt(const DramLocation &loc);
    Rank &rankAt(const DramLocation &loc);

    /**
     * @p cycle delayed past any refresh window it lands in (identity
     * when refresh is off). Pure: the stat-bumping wrappers below and
     * the const bankReadyHint() share it.
     */
    Cycle refreshAdjusted(Cycle cycle) const;
    /** Delay an ACT past refresh; counts stats_.refreshStalls. */
    Cycle adjustForRefresh(Cycle cycle);
    /** Delay a column command past refresh; counts refreshStallsCas. */
    Cycle adjustForRefreshColumn(Cycle cycle);

    /** Earliest ACT issue respecting per-rank tRRD/tFAW windows. */
    Cycle rankActConstraint(const Rank &rank, Cycle earliest) const;

    DramConfig cfg_;
    AddressMap map_;
    std::vector<Channel> channels_;
    DramStats stats_;
    /** Ambient-contention model state (fast-timing mode only). */
    double ambientLoad_ = 0.0;
    double ambientFactor_ = 0.0;    ///< Calibrated sojourn stretch.
    double ambientCloseRate_ = 0.0; ///< Row closes /bank/cycle.
};

} // namespace cop

#endif // COP_DRAM_DRAM_SYSTEM_HPP
