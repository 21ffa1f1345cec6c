#include "sim/report.hpp"

#include <iomanip>
#include <ostream>

namespace cop {

namespace {

void
section(std::ostream &out, const char *title)
{
    out << "\n" << title << "\n";
    for (const char *c = title; *c; ++c)
        out << '-';
    out << "\n";
}

void
line(std::ostream &out, const char *label, double value,
     const char *unit = "")
{
    out << "  " << std::left << std::setw(28) << label << std::right
        << std::setw(16) << std::fixed << std::setprecision(3) << value
        << (unit[0] ? " " : "") << unit << "\n";
}

void
lineCount(std::ostream &out, const char *label, u64 value)
{
    out << "  " << std::left << std::setw(28) << label << std::right
        << std::setw(16) << value << "\n";
}

} // namespace

void
writeReport(const SystemResults &results, const SystemConfig &cfg,
            const WorkloadProfile &profile, std::ostream &out,
            const ReportOptions &options)
{
    out << "=== COP run report: " << profile.name << " under "
        << controllerKindName(cfg.kind) << " (" << cfg.cores
        << " cores) ===\n";

    if (options.performance) {
        section(out, "performance");
        lineCount(out, "instructions", results.instructions);
        lineCount(out, "cycles", results.cycles);
        line(out, "aggregate IPC", results.ipc);
        line(out, "per-core IPC",
             results.ipc / static_cast<double>(cfg.cores));
        line(out, "perfect-L3 IPC (per core)", profile.perfectIpc);
    }

    if (results.fastTiming) {
        // Always printed for a fast-timing run, whatever the section
        // mask: the reader must know these numbers came from the
        // relaxed-consistency model, not the byte-identical one.
        section(out, "fast timing (relaxed consistency; "
                     "NOT byte-identical to the exact model)");
        lineCount(out, "shards", results.ftShards);
        lineCount(out, "quantum barriers", results.ftBarriers);
        lineCount(out, "ambient stall cycles",
                  results.dram.ambientStallCycles);
        lineCount(out, "ambient row closes",
                  results.dram.ambientRowCloses);
        lineCount(out, "max shard clock skew", results.ftClockSkewMax);
        lineCount(out, "version merges", results.ftVersionMerges);
    }

    if (options.cache) {
        section(out, "shared L3");
        lineCount(out, "hits", results.llc.hits);
        lineCount(out, "misses", results.llc.misses);
        line(out, "miss rate", results.llc.missRate());
        lineCount(out, "dirty evictions", results.llc.dirtyEvictions);
        lineCount(out, "alias-pinned lines", results.llc.aliasPinned);
        lineCount(out, "set overflows", results.llc.setOverflows);
    }

    if (options.dram) {
        section(out, "DRAM");
        lineCount(out, "reads", results.dram.reads);
        lineCount(out, "writes", results.dram.writes);
        line(out, "row-hit rate", results.dram.rowHitRate());
        line(out, "avg read latency", results.dram.avgReadLatency(),
             "cycles");
        line(out, "avg write latency", results.dram.avgWriteLatency(),
             "cycles");
        const HistogramSummary read_lat =
            results.dram.readLatency.summary();
        lineCount(out, "read latency p50", read_lat.p50);
        lineCount(out, "read latency p95", read_lat.p95);
        lineCount(out, "read latency p99", read_lat.p99);
        lineCount(out, "read latency max", read_lat.max);
        lineCount(out, "refresh stalls", results.dram.refreshStalls);
        lineCount(out, "refresh stalls (CAS)",
                  results.dram.refreshStallsCas);
        lineCount(out, "bus turnarounds", results.dram.busTurnarounds);
        if (results.cycles > 0) {
            line(out, "bus utilisation",
                 static_cast<double>(results.dram.busBusyCycles) /
                     (static_cast<double>(results.cycles) *
                      cfg.dram.channels));
            // One 64-byte block per burst; core cycles -> seconds at
            // the energy model's 3.2 GHz core clock.
            const double seconds = static_cast<double>(results.cycles) /
                                   (DramEnergyParams{}.coreGHz * 1e9);
            line(out, "effective bandwidth",
                 static_cast<double>(results.dram.reads +
                                     results.dram.writes) *
                     64.0 / seconds / 1e9,
                 "GB/s");
        }
    }

    if (options.controller) {
        section(out, "memory controller");
        lineCount(out, "fills", results.mem.reads - results.mem.metaReads);
        lineCount(out, "writebacks",
                  results.mem.protectedWrites +
                      results.mem.unprotectedWrites);
        lineCount(out, "compressed writebacks",
                  results.mem.protectedWrites);
        lineCount(out, "raw writebacks", results.mem.unprotectedWrites);
        lineCount(out, "alias rejects", results.mem.aliasRejects);
        lineCount(out, "metadata DRAM reads", results.mem.metaReads);
        lineCount(out, "metadata DRAM writes", results.mem.metaWrites);
        lineCount(out, "metadata cache hits", results.mem.metaCacheHits);
        const u64 writes = results.mem.protectedWrites +
                           results.mem.unprotectedWrites;
        if (writes > 0) {
            line(out, "compressible fraction",
                 static_cast<double>(results.mem.protectedWrites) /
                     static_cast<double>(writes));
        }
        static const char *scheme_names[] = {"MSB", "RLE", "TXT"};
        for (unsigned s = 0; s < 3; ++s) {
            const std::string label =
                std::string("scheme ") + scheme_names[s] + " writes";
            lineCount(out, label.c_str(), results.mem.schemeWrites[s]);
        }
        if (results.eccRegionBytes > 0) {
            line(out, "ECC region (high water)",
                 results.eccRegionBytes / 1024.0, "KB");
            line(out, "ECC region (no dealloc)",
                 results.eccRegionBytesNoDealloc / 1024.0, "KB");
            lineCount(out, "ever-incompressible blocks",
                      results.everUncompressedBlocks);
        }
    }

    if (options.reliability) {
        section(out, "reliability (PARMA model, 5000 FIT/Mbit)");
        for (unsigned c = 0; c < kVulnClasses; ++c) {
            const auto cls = static_cast<VulnClass>(c);
            const auto &entry = results.vuln.of(cls);
            if (entry.reads == 0)
                continue;
            out << "  reads under " << std::left << std::setw(15)
                << vulnClassName(cls) << std::right << std::setw(16)
                << entry.reads << "   mean residency "
                << std::setprecision(0)
                << entry.totalCycles / static_cast<double>(entry.reads)
                << " cycles\n" << std::setprecision(3);
        }
        const ErrorRateModel model;
        const ErrorRateReport report = model.evaluate(results.vuln);
        line(out, "soft-error-rate reduction", report.reduction() * 100,
             "%");
    }

    if (options.energy) {
        section(out, "memory energy");
        const DramEnergyModel model;
        const unsigned chips = cfg.kind == ControllerKind::EccDimm ? 9 : 8;
        const DramEnergyReport e =
            model.evaluate(results.dram, results.cycles, chips);
        line(out, "activate/precharge", e.activateMj, "mJ");
        line(out, "read bursts", e.readMj, "mJ");
        line(out, "write bursts", e.writeMj, "mJ");
        line(out, "I/O + termination", e.ioMj, "mJ");
        line(out, "background", e.backgroundMj, "mJ");
        line(out, "total", e.totalMj(), "mJ");
        if (results.instructions > 0) {
            line(out, "energy per kilo-instruction",
                 e.totalMj() * 1e6 /
                     (static_cast<double>(results.instructions) / 1000.0),
                 "nJ");
        }
    }
    out << "\n";
}

} // namespace cop
