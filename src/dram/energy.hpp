/**
 * @file
 * DRAM energy model. The paper's opening motivation is cost *and*
 * power: "special DIMMs ... increase the cost of the DIMM as well as
 * its power consumption" — an ECC DIMM adds a 9th chip to every rank,
 * paying ~12.5% more dynamic and background energy, while the
 * ECC-region approach pays extra accesses instead. This model turns a
 * run's DramStats into per-component energy so the benches can put
 * numbers on that motivation.
 *
 * Per-event energies follow the standard Micron power-calculator
 * methodology for a DDR3-1600 x8 device, folded into per-chip
 * constants (current deltas times voltage times duration). Absolute
 * values are representative, relative comparisons are the point.
 */

#ifndef COP_DRAM_ENERGY_HPP
#define COP_DRAM_ENERGY_HPP

#include "dram/dram_system.hpp"

namespace cop {

/** Per-chip energy/power constants (DDR3-1600 x8 class). */
struct DramEnergyParams
{
    /** Energy of one activate+precharge pair, per chip (nJ). */
    double actPreNj = 1.60;
    /** Energy of one read burst, per chip (nJ). */
    double readNj = 1.10;
    /** Energy of one write burst, per chip (nJ). */
    double writeNj = 1.25;
    /** I/O + termination energy per 64-byte transfer, whole rank (nJ). */
    double ioNj = 2.8;
    /** Background (standby + periodic refresh) power per chip (mW). */
    double backgroundMw = 55.0;
    /** Core clock for cycle->time conversion (GHz). */
    double coreGHz = 3.2;
};

/** Energy breakdown of one run (all in millijoules). */
struct DramEnergyReport
{
    double activateMj = 0;
    double readMj = 0;
    double writeMj = 0;
    double ioMj = 0;
    double backgroundMj = 0;

    double
    totalMj() const
    {
        return activateMj + readMj + writeMj + ioMj + backgroundMj;
    }
};

/**
 * Computes energy from access statistics. @p chips_per_rank is the
 * knob that separates a standard DIMM (8) from an ECC DIMM (9).
 */
class DramEnergyModel
{
  public:
    explicit DramEnergyModel(
        const DramEnergyParams &params = DramEnergyParams{})
        : params_(params)
    {
    }

    /**
     * Energy of a run.
     * @param stats          access counts from the DRAM model;
     * @param elapsed_cycles wall-clock of the run in core cycles;
     * @param chips_per_rank 8 (non-ECC) or 9 (ECC DIMM);
     * @param total_ranks    ranks powered in the system.
     */
    DramEnergyReport
    evaluate(const DramStats &stats, Cycle elapsed_cycles,
             unsigned chips_per_rank, unsigned total_ranks = 4) const
    {
        DramEnergyReport r;
        const double chips = chips_per_rank;
        const auto row_ops =
            static_cast<double>(stats.rowMisses + stats.rowConflicts);
        r.activateMj = row_ops * params_.actPreNj * chips * 1e-6;
        // Burst and I/O energy are per 8-beat burst (one access).
        const auto read_bursts = static_cast<double>(stats.reads);
        const auto write_bursts = static_cast<double>(stats.writes);
        r.readMj = read_bursts * params_.readNj * chips * 1e-6;
        r.writeMj = write_bursts * params_.writeNj * chips * 1e-6;
        // I/O scales with transfers, and an ECC DIMM moves 72 bits per
        // beat instead of 64.
        r.ioMj = (read_bursts + write_bursts) * params_.ioNj *
                 (chips / 8.0) * 1e-6;
        const double seconds =
            static_cast<double>(elapsed_cycles) / (params_.coreGHz * 1e9);
        r.backgroundMj = params_.backgroundMw * chips * total_ranks *
                         seconds;
        return r;
    }

    const DramEnergyParams &params() const { return params_; }

  private:
    DramEnergyParams params_;
};

} // namespace cop

#endif // COP_DRAM_ENERGY_HPP
