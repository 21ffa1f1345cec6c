/**
 * @file
 * The figures driver: one table of entries regenerates every figure
 * and table of the paper's evaluation (Figs. 1-12, Table 3, the §4
 * comparisons) plus the repo's ablations and extensions.
 *
 *   figures [name...] [--quick] [--config] [--profile NAME]
 *           [--jobs N | --serial]
 *
 * With no names every entry runs. An entry declares its full-system
 * cells into a Grid and returns its render step. The driver gathers
 * the selected entries' cells, runs each distinct cell once
 * (sameCell, sim/runner.hpp) under COP_BENCH_JOBS workers, then
 * renders the entries in table order: each prints its stdout block
 * (after a `==> name <==` line) and writes bench/results/<name>.json.
 * Results are keyed by cell, so both are byte-identical whatever the
 * worker count and whichever other entries ran alongside. Work that
 * is not a System run (codec sweeps, fault-injection Monte Carlo)
 * happens inside the render step, on the runner where it is a grid.
 *
 * Flags: `--quick` shrinks fault_campaign for the CI perf-smoke job;
 * `--config` prints the Table 1 block in fig11_performance;
 * `--profile NAME` picks
 * trace_replay's benchmark (default mcf). COP_BENCH_EPOCHS sets the
 * epochs per core, COP_BENCH_RESULTS the results directory, and
 * COP_TRACE_STATS=<dir> gives every System cell its own stats trace,
 * <dir>/<entry>.<benchmark>.<scheme>.jsonl (traced cells never merge).
 *
 * Beside the results the driver writes figures.timing.json: total and
 * distinct cells, each distinct cell's wall time, and each entry's
 * render time. It is the only file that varies between runs.
 */

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>

#include "compress/bdi.hpp"
#include "compress/combined.hpp"
#include "compress/fpc.hpp"
#include "core/chipkill_codec.hpp"
#include "core/codec.hpp"
#include "dram/energy.hpp"
#include "mem/ecc_region_controller.hpp"
#include "reliability/error_model.hpp"
#include "reliability/failure_modes.hpp"
#include "reliability/fault_injector.hpp"
#include "reliability/ondie_ecc.hpp"
#include "run_util.hpp"
#include "sim/trace_io.hpp"
#include "trace/gzip_source.hpp"
#include "trace/replay.hpp"
#include "trace/text_source.hpp"
#include "workloads/block_gen.hpp"

namespace cop::bench {
namespace {

/** Command-line settings every entry sees. */
struct Options
{
    RunnerOptions runner;
    bool quick = false;
    bool config = false;
    std::string profile = "mcf";
};

/**
 * One entry's full-system cells and, after the driver has run them,
 * their results. Cells are keyed by (benchmark, scheme label).
 */
class Grid
{
  public:
    struct Cell
    {
        WorkloadProfile profile;
        SystemConfig cfg;
        std::string scheme;
        const SystemResults *result = nullptr;
    };

    explicit Grid(std::string name) : name_(std::move(name)) {}

    /** Add a Table-1 cell for @p kind; scheme label is the kind name. */
    void
    add(const WorkloadProfile &profile, ControllerKind kind)
    {
        add(profile, paperConfig(kind), controllerKindName(kind));
    }

    /** Add a custom-config cell under an explicit scheme label. */
    void
    add(const WorkloadProfile &profile, const SystemConfig &cfg,
        const std::string &scheme)
    {
        const bool fresh =
            index_.emplace(std::pair(profile.name, scheme), cells_.size())
                .second;
        COP_ASSERT(fresh); // duplicate (benchmark, scheme) cell
        cells_.push_back(Cell{profile, cfg, scheme});
        attachTraceSink(cells_.back());
    }

    const SystemResults &
    result(const WorkloadProfile &profile, ControllerKind kind) const
    {
        return result(profile.name, controllerKindName(kind));
    }

    const SystemResults &
    result(const std::string &bench, const std::string &scheme) const
    {
        const auto it = index_.find(std::pair(bench, scheme));
        if (it == index_.end())
            COP_PANIC("no grid cell (" + bench + ", " + scheme + ")");
        return result(it->second);
    }

    const SystemResults &
    result(size_t idx) const
    {
        COP_ASSERT(cells_[idx].result != nullptr);
        return *cells_[idx].result;
    }

    /** Attach a derived scalar to the JSON sink (e.g. a geomean). */
    void
    addScalar(const std::string &name, double value)
    {
        derived_.add(name, value);
    }

    /** Write <name>.json: derived scalars and every cell's metrics. */
    void
    writeJson() const
    {
        std::string cells;
        for (size_t i = 0; i < cells_.size(); ++i) {
            if (i)
                cells += ',';
            JsonObjectBuilder cell;
            cell.add("benchmark", cells_[i].profile.name);
            cell.add("scheme", cells_[i].scheme);
            cell.add("epochs_per_core", cells_[i].cfg.epochsPerCore);
            std::string metrics;
            appendResultsJson(metrics, result(i));
            cell.addRaw("metrics", metrics);
            cells += cell.str();
        }
        JsonObjectBuilder top;
        top.add("bench", name_);
        top.addRaw("derived", derived_.str());
        top.addRaw("cells", "[" + cells + "]");
        writeResultsFile(name_ + ".json", top.str());
    }

    const std::string &name() const { return name_; }
    std::vector<Cell> &cells() { return cells_; }

  private:
    /** Point a cell's trace sink into COP_TRACE_STATS, if set. */
    void
    attachTraceSink(Cell &cell) const
    {
        const char *dir = std::getenv("COP_TRACE_STATS");
        if (dir == nullptr)
            return;
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        auto sanitize = [](const std::string &s) {
            std::string out;
            for (const char c : s)
                out += std::isalnum(static_cast<unsigned char>(c))
                           ? c
                           : '_';
            return out;
        };
        cell.cfg.traceStatsPath =
            (std::filesystem::path(dir) /
             (name_ + "." + sanitize(cell.profile.name) + "." +
              sanitize(cell.scheme) + ".jsonl"))
                .string();
    }

    std::string name_;
    std::vector<Cell> cells_;
    std::map<std::pair<std::string, std::string>, size_t> index_;
    JsonObjectBuilder derived_;
};

/** Prints and writes an entry from its grid's results; 0 on success. */
using Render = std::function<int(Grid &)>;

/** Suite-average rows of Figs. 8-11: SPEC2006 (int + fp), PARSEC. */
void
printSuiteRows(const SuiteAverager &avg, bool pct)
{
    const auto print = [pct](const char *name,
                             const std::vector<double> &row) {
        pct ? printPctRow(name, row) : printRow(name, row);
    };
    auto spec = avg.intRows;
    spec.insert(spec.end(), avg.fpRows.begin(), avg.fpRows.end());
    print("SPEC2006", SuiteAverager::average(spec));
    print("PARSEC", SuiteAverager::average(avg.parsecRows));
}

// ---------------------------------------------------------------------
// Figure 1: blocks compressible with FPC vs the target compression
// ratio (astar, gcc, libquantum, mcf, SPECint average). At COP's low
// ratio (~6.25%) even "incompressible" applications mostly qualify.
// ---------------------------------------------------------------------
Render
fig01(Grid &, const Options &)
{
    return [](Grid &) {
        const FpcCompressor fpc;

        std::printf("Figure 1: blocks compressible with FPC vs target "
                    "compression ratio\n");
        std::printf("(percent of blocks whose FPC output fits "
                    "512*(1-ratio) bits)\n\n");

        // Compressed-size distribution per benchmark.
        std::vector<std::pair<std::string, std::vector<int>>> sizes;
        for (const auto *p : WorkloadRegistry::specIntFigure1()) {
            std::vector<int> s;
            for (const auto &b : sampleFor(*p))
                s.push_back(fpc.compressedBits(b));
            sizes.emplace_back(p->name, std::move(s));
        }
        {
            // SPECint 2006 average: pooled sample across the suite.
            std::vector<int> s;
            for (const auto *p : WorkloadRegistry::bySuite(Suite::SpecInt)) {
                const BlockContentPool pool(*p);
                for (const auto &b : pool.sample(kSampleBlocks / 4, 2))
                    s.push_back(fpc.compressedBits(b));
            }
            sizes.emplace_back("SPECint 2006", std::move(s));
        }

        std::printf("%-8s", "ratio");
        for (const auto &[name, s] : sizes)
            std::printf(" %13s", name.c_str());
        std::printf("\n");
        for (unsigned i = 0; i < 8 + sizes.size() * 14; ++i)
            std::printf("-");
        std::printf("\n");

        for (int ratio_pct = 0; ratio_pct <= 100; ratio_pct += 5) {
            const double limit = 512.0 * (1.0 - ratio_pct / 100.0);
            std::printf("%6d%% ", ratio_pct);
            for (const auto &[name, s] : sizes) {
                unsigned ok = 0;
                for (const int bits : s)
                    ok += bits >= 0 && bits <= limit;
                std::printf(" %12.1f%%",
                            100.0 * ok / static_cast<double>(s.size()));
            }
            std::printf("\n");
        }

        std::printf("\nCOP's operating point is ~6.25%% (free 4 bytes "
                    "per 64-byte block).\n");
        return 0;
    };
}

// ---------------------------------------------------------------------
// Figure 4: MSB compressibility on SPECfp with the 5-bit comparison
// shifted past the IEEE-754 sign bit vs unshifted.
// ---------------------------------------------------------------------
Render
fig04(Grid &, const Options &)
{
    return [](Grid &) {
        const MsbCompressor unshifted(5, false);
        const MsbCompressor shifted(5, true);
        constexpr unsigned kBudget = 478; // free 4 bytes + 2 tag bits

        printHeader("Figure 4: MSB compressibility, unshifted vs "
                    "shifted comparison (4 bytes freed)",
                    {"Unshifted", "Shifted", "Gain"});

        std::vector<double> col_unshift, col_shift;
        for (const auto *p : WorkloadRegistry::specFpFigure4()) {
            const auto blocks = sampleFor(*p);
            const double u = fractionCompressible(blocks, unshifted,
                                                  kBudget);
            const double s = fractionCompressible(blocks, shifted,
                                                  kBudget);
            printPctRow(p->name, {u, s, s - u});
            col_unshift.push_back(u);
            col_shift.push_back(s);
        }
        const double mu = mean(col_unshift);
        const double ms = mean(col_shift);
        std::printf("%s\n", std::string(16 + 3 * 13, '-').c_str());
        printPctRow("Average", {mu, ms, ms - mu});
        std::printf("\nPaper: shifting the comparison improves SPECfp "
                    "compressibility by ~15%%.\n");
        return 0;
    };
}

// ---------------------------------------------------------------------
// Figures 8 and 9: compressible blocks when freeing 8 (resp. 4) bytes
// per block, per compressor and for the combined scheme, over the
// Table 2 memory-intensive set plus suite averages. (TXT cannot free
// 8 bytes and is absent from Fig. 8, as in the paper.)
// ---------------------------------------------------------------------
Render
fig08(Grid &, const Options &)
{
    return [](Grid &) {
        const MsbCompressor msb(10, true);
        const RleCompressor rle;
        const FpcCompressor fpc;
        const CombinedCompressor combined(8);
        const unsigned budget = combined.streamBudget(); // 446 bits

        printHeader("Figure 8: compressible blocks when freeing 8 bytes "
                    "per block",
                    {"MSB", "RLE", "FPC", "MSB+RLE"});

        SuiteAverager avg;
        for (const auto *p : WorkloadRegistry::memoryIntensive()) {
            const auto blocks = sampleFor(*p);
            unsigned comb_ok = 0;
            for (const auto &b : blocks)
                comb_ok += combined.compressible(b);
            const std::vector<double> row = {
                fractionCompressible(blocks, msb, budget),
                fractionCompressible(blocks, rle, budget),
                fractionCompressible(blocks, fpc, budget),
                static_cast<double>(comb_ok) / blocks.size(),
            };
            printPctRow(p->name, row);
            avg.add(*p, row);
        }

        std::printf("%s\n", std::string(16 + 4 * 13, '-').c_str());
        printSuiteRows(avg, true);
        printPctRow("Average", SuiteAverager::average(avg.allRows));
        return 0;
    };
}

Render
fig09(Grid &, const Options &)
{
    return [](Grid &) {
        const TxtCompressor txt;
        const MsbCompressor msb(5, true);
        const RleCompressor rle;
        const FpcCompressor fpc;
        const CombinedCompressor combined(4);
        const unsigned budget = combined.streamBudget(); // 478 bits

        printHeader("Figure 9: compressible blocks when freeing 4 bytes "
                    "per block",
                    {"TXT", "MSB", "RLE", "FPC", "TXT+MSB+RLE"});

        SuiteAverager avg;
        for (const auto *p : WorkloadRegistry::memoryIntensive()) {
            const auto blocks = sampleFor(*p);
            unsigned comb_ok = 0;
            for (const auto &b : blocks)
                comb_ok += combined.compressible(b);
            const std::vector<double> row = {
                fractionCompressible(blocks, txt, budget),
                fractionCompressible(blocks, msb, budget),
                fractionCompressible(blocks, rle, budget),
                fractionCompressible(blocks, fpc, budget),
                static_cast<double>(comb_ok) / blocks.size(),
            };
            printPctRow(p->name, row);
            avg.add(*p, row);
        }

        std::printf("%s\n", std::string(16 + 5 * 13, '-').c_str());
        printSuiteRows(avg, true);
        printPctRow("Average", SuiteAverager::average(avg.allRows));
        std::printf("\nPaper: the combined approach compresses 94%% of "
                    "blocks on average.\n");
        return 0;
    };
}

// ---------------------------------------------------------------------
// Figure 10: soft-error-rate reduction of COP 8-byte, COP 4-byte and
// COP-ER vs unprotected DRAM: a PARMA-style vulnerability clock per
// block (write -> next read) at 5000 FIT/Mbit over full-system runs.
// ---------------------------------------------------------------------
Render
fig10(Grid &grid, const Options &)
{
    static const ControllerKind kinds[] = {
        ControllerKind::Cop8, ControllerKind::Cop4, ControllerKind::CopEr};
    const auto profiles = WorkloadRegistry::memoryIntensive();
    for (const auto *p : profiles) {
        for (const ControllerKind kind : kinds)
            grid.add(*p, kind);
    }
    return [profiles](Grid &grid) {
        const ErrorRateModel model;
        printHeader(
            "Figure 10: reduction in soft-error rate vs unprotected DRAM",
            {"COP 8-byte", "COP 4-byte", "COP-ER 4B"});

        SuiteAverager avg;
        for (const auto *p : profiles) {
            std::vector<double> row;
            for (const ControllerKind kind : kinds)
                row.push_back(
                    model.evaluate(grid.result(*p, kind).vuln).reduction());
            printPctRow(p->name, row);
            avg.add(*p, row);
        }

        std::printf("%s\n", std::string(16 + 3 * 13, '-').c_str());
        printSuiteRows(avg, true);
        const std::vector<double> overall =
            SuiteAverager::average(avg.allRows);
        printPctRow("Average", overall);
        std::printf("\nPaper: COP 4-byte reduces the error rate by 93%% "
                    "on average; COP-ER is ~100%%\n(all single-bit "
                    "errors corrected). The 4-byte version beats 8-byte "
                    "because\nless required compression protects more "
                    "blocks.\n");

        grid.addScalar("avg_reduction_cop8", overall[0]);
        grid.addScalar("avg_reduction_cop4", overall[1]);
        grid.addScalar("avg_reduction_coper", overall[2]);
        grid.writeJson();
        return 0;
    };
}

// ---------------------------------------------------------------------
// Figure 11: IPC of COP, COP-ER and ECC Reg. normalised to the
// unprotected 4-core Table 1 system. COP pays only the decode latency;
// COP-ER adds occasional entry fetches; ECC Reg. pays extra DRAM
// traffic on most fills (paper: ~8% behind COP-ER).
// ---------------------------------------------------------------------
Render
fig11(Grid &grid, const Options &opt)
{
    static const ControllerKind kinds[] = {
        ControllerKind::Unprotected, ControllerKind::Cop4,
        ControllerKind::CopEr, ControllerKind::EccRegion};
    const auto profiles = WorkloadRegistry::memoryIntensive();
    for (const auto *p : profiles) {
        for (const ControllerKind kind : kinds)
            grid.add(*p, kind);
    }
    return [profiles, opt](Grid &grid) {
        if (opt.config)
            printTable1();
        printHeader(
            "Figure 11: IPC normalised to the unprotected system (4 cores)",
            {"Unprot.", "COP", "COP-ER", "ECC Reg."});

        SuiteAverager avg;
        std::vector<double> geo_cop, geo_coper, geo_eccreg;
        for (const auto *p : profiles) {
            const double unprot =
                grid.result(*p, ControllerKind::Unprotected).ipc;
            const double cop =
                grid.result(*p, ControllerKind::Cop4).ipc / unprot;
            const double coper =
                grid.result(*p, ControllerKind::CopEr).ipc / unprot;
            const double eccreg =
                grid.result(*p, ControllerKind::EccRegion).ipc / unprot;
            const std::vector<double> row = {1.0, cop, coper, eccreg};
            printRow(p->name, row);
            avg.add(*p, row);
            geo_cop.push_back(cop);
            geo_coper.push_back(coper);
            geo_eccreg.push_back(eccreg);
        }

        std::printf("%s\n", std::string(16 + 4 * 13, '-').c_str());
        printRow("Geomean", {1.0, geomean(geo_cop), geomean(geo_coper),
                             geomean(geo_eccreg)});
        printSuiteRows(avg, false);

        std::printf("\nPaper: COP slightly below unprotected (decode "
                    "latency); COP-ER slightly below\nCOP (entry "
                    "fetches); COP-ER ~8%% better than the ECC Reg. "
                    "baseline.\n");

        grid.addScalar("geomean_cop", geomean(geo_cop));
        grid.addScalar("geomean_coper", geomean(geo_coper));
        grid.addScalar("geomean_eccreg", geomean(geo_eccreg));
        grid.writeJson();
        return 0;
    };
}

// ---------------------------------------------------------------------
// Figure 12: ECC-region storage of COP-ER vs the ECC Reg. baseline.
// The baseline reserves a 2-byte entry per touched data block; COP-ER
// keeps a 46-bit entry (11 per 64-byte block, plus the valid-bit tree)
// only for blocks ever incompressible in DRAM, none deallocated.
// ---------------------------------------------------------------------
Render
fig12(Grid &grid, const Options &)
{
    const auto profiles = WorkloadRegistry::memoryIntensive();
    for (const auto *p : profiles)
        grid.add(*p, ControllerKind::CopEr);
    return [profiles](Grid &grid) {
        printHeader("Figure 12: reduction in ECC storage, COP-ER vs ECC "
                    "Reg. baseline",
                    {"ever-incmp", "COP-ER KB", "base KB", "Reduction"});

        std::vector<double> reductions;
        for (const auto *p : profiles) {
            const SystemResults &r = grid.result(*p, ControllerKind::CopEr);
            const u64 coper_bytes = r.eccRegionBytesNoDealloc;
            const u64 base_bytes =
                EccRegionController::storageBytesFor(r.touchedBlocks);
            const double reduction =
                base_bytes ? 1.0 - static_cast<double>(coper_bytes) /
                                       static_cast<double>(base_bytes)
                           : 0.0;
            const double ever_frac =
                r.touchedBlocks
                    ? static_cast<double>(r.everUncompressedBlocks) /
                          static_cast<double>(r.touchedBlocks)
                    : 0.0;
            std::printf("%-16s %11.1f%% %12.1f %12.1f %11.1f%%\n",
                        p->name.c_str(), ever_frac * 100.0,
                        coper_bytes / 1024.0, base_bytes / 1024.0,
                        reduction * 100.0);
            reductions.push_back(reduction);
        }

        std::printf("%s\n", std::string(16 + 4 * 13, '-').c_str());
        std::printf("%-16s %38s %11.1f%%\n", "Average", "",
                    mean(reductions) * 100.0);
        std::printf("\nPaper: COP-ER reduces ECC storage by 80%% on "
                    "average.\n");

        grid.addScalar("avg_storage_reduction", mean(reductions));
        grid.writeJson();
        return 0;
    };
}

// ---------------------------------------------------------------------
// Table 3: valid code words in incompressible blocks (after the static
// hash), plus Section 3.1's analytic alias probabilities. Blocks with
// >= 3 valid code words are aliases and stay in the LLC.
// ---------------------------------------------------------------------
Render
table3(Grid &, const Options &)
{
    return [](Grid &) {
        const CopCodec codec(CopConfig::fourByte());

        std::printf("Section 3.1 analytic alias probabilities "
                    "((128,120) SECDED):\n");
        const double p_word = 1.0 / 256.0;
        std::printf("  P(random 128-bit word is a valid code word) = "
                    "2^-8 = %.2f%%\n",
                    p_word * 100);
        double p3 = 0;
        for (int k = 3; k <= 4; ++k) {
            double comb = (k == 3) ? 4.0 : 1.0;
            p3 += comb * std::pow(p_word, k) * std::pow(1 - p_word, 4 - k);
        }
        std::printf("  P(random 512-bit block has >= 3 valid words) = "
                    "%.7f%%  (paper: 0.00002%%)\n\n",
                    p3 * 100);

        // Monte-Carlo census over incompressible blocks from all
        // Table 2 benchmarks.
        std::array<u64, 5> histogram{};
        u64 incompressible = 0;
        for (const auto *p : WorkloadRegistry::memoryIntensive()) {
            const BlockContentPool pool(*p);
            for (const auto &b : pool.sample(kSampleBlocks, 3)) {
                if (codec.compressor().compressible(b))
                    continue;
                ++incompressible;
                ++histogram[codec.countValidCodewords(b)];
            }
        }

        std::printf("Table 3: code words in incompressible data blocks "
                    "(%" PRIu64 " blocks sampled)\n",
                    incompressible);
        std::printf("%-16s %16s %20s\n", "# code words", "pct of blocks",
                    "equiv 8GB blocks");
        const double total_8gb = (8ULL << 30) / kBlockBytes;
        for (unsigned k = 1; k <= 4; ++k) {
            const double pct =
                incompressible
                    ? static_cast<double>(histogram[k]) / incompressible
                    : 0.0;
            std::printf("%-16u %15.6f%% %20.0f\n", k, pct * 100,
                        pct * total_8gb);
        }
        std::printf("\nPaper row for reference: 1 -> 1.4%%, 2 -> "
                    "0.005%%, 3 -> 0.000002%%, 4 -> 0%%.\n");
        std::printf("(>= 3 valid code words = incompressible alias: "
                    "pinned in the LLC, never in DRAM.)\n");
        return 0;
    };
}

// ---------------------------------------------------------------------
// Section 4's COP-ER vs ECC DIMM comparison: COP-ER's wide (523,512)
// code loses to eight (72,64) words by ~6x on double-bit hits, shown
// analytically and by Monte-Carlo injection through the real decoders
// (two independent runner cells, each with its own injector stream).
// ---------------------------------------------------------------------
Render
eccDimmCompare(Grid &, const Options &opt)
{
    return [opt](Grid &) {
        const ErrorRateModel model;
        std::printf("COP-ER vs ECC DIMM uncorrectable-error "
                    "comparison\n\n");
        std::printf("Analytic (double-error-in-one-word dominates):\n");
        std::printf("  word-width argument: 523^2 / (8 * 72^2) = %.2f\n",
                    523.0 * 523.0 / (8 * 72.0 * 72.0));
        std::printf("  error-model ratio at equal exposure: %.2f\n\n",
                    model.copErVsEccDimmRatio(1e12));

        const CopCodec codec(CopConfig::fourByte());
        const CoperCodec coper(codec);
        Rng rng(7);

        // Incompressible data (the class COP-ER stores via entries).
        CacheBlock data;
        do {
            for (unsigned w = 0; w < 8; ++w)
                data.setWord64(w, rng.next());
        } while (codec.encode(data).status != EncodeStatus::Unprotected);

        constexpr u64 kTrials = 200000;
        const std::vector<InjectionOutcome> outcomes =
            runCollected<InjectionOutcome>(
                2,
                [&](size_t cell) {
                    FaultInjector injector(2024 + static_cast<u64>(cell));
                    return cell == 0
                               ? injector.injectCopEr(coper, data, 2,
                                                      kTrials)
                               : injector.injectEccDimm(data, 2, kTrials);
                },
                opt.runner);
        const InjectionOutcome &coper_out = outcomes[0];
        const InjectionOutcome &dimm_out = outcomes[1];

        std::printf("Monte-Carlo, 2 random flips per block, %llu "
                    "trials:\n",
                    static_cast<unsigned long long>(kTrials));
        std::printf("  %-10s %12s %12s %12s %12s\n", "scheme",
                    "corrected", "benign", "detected", "silent");
        static const char *labels[] = {"COP-ER", "ECC DIMM"};
        for (size_t i = 0; i < 2; ++i) {
            std::printf("  %-10s %12llu %12llu %12llu %12llu\n",
                        labels[i],
                        (unsigned long long)outcomes[i].corrected,
                        (unsigned long long)outcomes[i].benign,
                        (unsigned long long)outcomes[i].detected,
                        (unsigned long long)outcomes[i].silent);
        }

        // The ECC-DIMM image has 576 bits vs COP-ER's 512 in the data
        // block, so per-flip-pair rates need no exposure scaling; the
        // ratio of uncorrected fractions is the headline number.
        const double ratio = coper_out.uncorrectedRate() /
                             (dimm_out.uncorrectedRate() + 1e-12);
        std::printf("\n  uncorrected ratio (COP-ER / ECC DIMM) = %.2f "
                    "(paper: ~6x)\n",
                    ratio);
        std::printf("  ...both schemes still correct all single-bit "
                    "errors; vs unprotected DRAM\n  either reduces the "
                    "error rate by orders of magnitude.\n");

        std::string cells;
        for (size_t i = 0; i < 2; ++i) {
            if (i)
                cells += ',';
            JsonObjectBuilder cell;
            cell.add("scheme", std::string(labels[i]));
            cell.add("trials", outcomes[i].trials);
            cell.add("corrected", outcomes[i].corrected);
            cell.add("benign", outcomes[i].benign);
            cell.add("detected", outcomes[i].detected);
            cell.add("silent", outcomes[i].silent);
            cells += cell.str();
        }
        JsonObjectBuilder top;
        top.add("bench", std::string("ecc_dimm_compare"));
        top.add("analytic_ratio", model.copErVsEccDimmRatio(1e12));
        top.add("monte_carlo_ratio", ratio);
        top.addRaw("cells", "[" + cells + "]");
        writeResultsFile("ecc_dimm_compare.json", top.str());
        return 0;
    };
}

// ---------------------------------------------------------------------
// Decoder valid-code-word threshold (Section 3.1): 2 recovers split
// double errors at orders of magnitude more aliases; 4 has no aliases
// but cannot correct one error. The cells draw identical samples, so
// the comparison is paired.
// ---------------------------------------------------------------------
struct ThresholdResult
{
    double aliasRate = 0;
    double oneFlipPct = 0;
    double twoFlipPct = 0;
};

ThresholdResult
evaluateThreshold(unsigned threshold)
{
    CopConfig cfg = CopConfig::fourByte();
    cfg.threshold = threshold;
    const CopCodec codec(cfg);

    // Alias rate over random (incompressible-like) blocks.
    Rng rng(11);
    constexpr int kBlocks = 400000;
    u64 aliases = 0;
    for (int i = 0; i < kBlocks; ++i) {
        CacheBlock b;
        for (unsigned w = 0; w < 8; ++w)
            b.setWord64(w, rng.next());
        aliases += codec.isAlias(b);
    }

    // Correction behaviour on a protected block.
    Rng data_rng(3);
    CacheBlock data;
    const u64 base = 0x0012340000000000ULL;
    for (unsigned w = 0; w < 8; ++w)
        data.setWord64(w, base + data_rng.below(1u << 20));
    const CopEncodeResult enc = codec.encode(data);
    COP_ASSERT(enc.isProtected());

    u64 one_ok = 0, two_ok = 0;
    constexpr int kTrials = 4000;
    for (int t = 0; t < kTrials; ++t) {
        CacheBlock s1 = enc.stored;
        s1.flipBit(static_cast<unsigned>(data_rng.below(512)));
        one_ok += codec.decode(s1).data == data;

        CacheBlock s2 = enc.stored;
        const unsigned w1 = data_rng.below(4);
        unsigned w2 = data_rng.below(4);
        while (w2 == w1)
            w2 = data_rng.below(4);
        s2.flipBit(w1 * 128 + data_rng.below(128));
        s2.flipBit(w2 * 128 + data_rng.below(128));
        two_ok += codec.decode(s2).data == data;
    }

    return ThresholdResult{100.0 * aliases / kBlocks,
                           100.0 * one_ok / kTrials,
                           100.0 * two_ok / kTrials};
}

Render
ablationThreshold(Grid &, const Options &opt)
{
    return [opt](Grid &) {
        static const unsigned thresholds[] = {2u, 3u, 4u};
        const std::vector<ThresholdResult> results =
            runCollected<ThresholdResult>(
                std::size(thresholds),
                [&](size_t i) { return evaluateThreshold(thresholds[i]); },
                opt.runner);

        std::printf("Ablation: decoder valid-code-word threshold "
                    "(4-byte COP configuration)\n\n");
        std::printf("%-10s %16s %18s %18s\n", "threshold", "alias rate",
                    "1-flip corrected", "2-flip (2 words)");
        std::printf("%s\n", std::string(66, '-').c_str());
        for (size_t i = 0; i < std::size(thresholds); ++i) {
            std::printf("%-10u %15.5f%% %17.1f%% %17.1f%%\n",
                        thresholds[i], results[i].aliasRate,
                        results[i].oneFlipPct, results[i].twoFlipPct);
        }
        std::printf("\nThreshold 3 (the paper's choice) is the only point "
                    "with both ~zero aliases\nand full single-error "
                    "correction; threshold 2 fixes split double errors "
                    "but\nmultiplies aliases by orders of magnitude; "
                    "threshold 4 cannot correct at all.\n");

        std::string cells;
        for (size_t i = 0; i < std::size(thresholds); ++i) {
            if (i)
                cells += ',';
            JsonObjectBuilder cell;
            cell.add("threshold", static_cast<u64>(thresholds[i]));
            cell.add("alias_rate_pct", results[i].aliasRate);
            cell.add("one_flip_corrected_pct", results[i].oneFlipPct);
            cell.add("two_flip_corrected_pct", results[i].twoFlipPct);
            cells += cell.str();
        }
        JsonObjectBuilder top;
        top.add("bench", std::string("ablation_threshold"));
        top.addRaw("cells", "[" + cells + "]");
        writeResultsFile("ablation_threshold.json", top.str());
        return 0;
    };
}

// ---------------------------------------------------------------------
// Static hash (Section 3.1): without it, data made of one repeated
// value aliases whenever that value forms a valid code word; with the
// per-segment hash the alias rate drops to the random-data level.
// ---------------------------------------------------------------------

/** Fraction of repeated valid-code-word-segment blocks that alias. */
double
aliasRateRepeatedSegments(const CopCodec &codec, u64 seed, int n)
{
    // Worst case: one 128-bit pattern that is itself a valid code
    // word, repeated across the block (a 2^-8 chance for any repeated
    // 16-byte pattern in real data; constructed directly here).
    Rng rng(seed);
    int aliases = 0;
    for (int i = 0; i < n; ++i) {
        std::array<u8, 16> segment{};
        for (unsigned b = 0; b < 15; ++b)
            segment[b] = static_cast<u8>(rng.next());
        codes::full128().encode(segment);
        CacheBlock block;
        for (unsigned s = 0; s < 4; ++s)
            std::memcpy(block.data() + 16 * s, segment.data(), 16);
        aliases += codec.isAlias(block);
    }
    return static_cast<double>(aliases) / n;
}

/** Fraction of repeated-word blocks (realistic case) that alias. */
double
aliasRateRepeatedWords(const CopCodec &codec, u64 seed, int n)
{
    Rng rng(seed);
    int aliases = 0;
    for (int i = 0; i < n; ++i) {
        CacheBlock block;
        const u64 v = rng.next();
        for (unsigned w = 0; w < 8; ++w)
            block.setWord64(w, v);
        aliases += codec.isAlias(block);
    }
    return static_cast<double>(aliases) / n;
}

Render
ablationHash(Grid &, const Options &opt)
{
    return [opt](Grid &) {
        CopConfig unhashed = CopConfig::fourByte();
        unhashed.useStaticHash = false;
        const CopCodec with(CopConfig::fourByte()), without(unhashed);
        constexpr int kTrials = 100000;

        // Cells: {segments, words} x {no hash, with hash}.
        const std::vector<double> rates = runCollected<double>(
            4,
            [&](size_t cell) {
                const CopCodec &codec = (cell % 2) ? with : without;
                return cell < 2
                           ? aliasRateRepeatedSegments(codec, 1, kTrials)
                           : aliasRateRepeatedWords(codec, 2, kTrials);
            },
            opt.runner);

        std::printf("Ablation: the per-segment static hash "
                    "(alias rate on repeated-value data)\n\n");
        std::printf("%-34s %14s %14s\n", "data pattern", "no hash",
                    "with hash");
        std::printf("%s\n", std::string(64, '-').c_str());
        std::printf("%-34s %13.4f%% %13.4f%%\n",
                    "repeated valid-code-word segment", 100 * rates[0],
                    100 * rates[1]);
        std::printf("%-34s %13.4f%% %13.4f%%\n", "repeated 64-bit word",
                    100 * rates[2], 100 * rates[3]);
        std::printf("\nWithout the hash, a repeated 16-byte pattern that "
                    "is a valid code word makes\nthe whole block an alias "
                    "(100%% above); the hash makes each segment see\n"
                    "different bits, restoring the 2^-24-scale odds of "
                    "Section 3.1.\n");

        JsonObjectBuilder top;
        top.add("bench", std::string("ablation_hash"));
        top.add("segments_no_hash", rates[0]);
        top.add("segments_with_hash", rates[1]);
        top.add("words_no_hash", rates[2]);
        top.add("words_with_hash", rates[3]);
        writeResultsFile("ablation_hash.json", top.str());
        return 0;
    };
}

// ---------------------------------------------------------------------
// MSB vs full BDI at the 4-byte budget (Section 3.2.1): at COP's low
// target ratio the adder-free MSB scheme matches or beats BDI, because
// COP needs coverage at a small budget, not a high ratio.
// ---------------------------------------------------------------------
Render
ablationMsbBdi(Grid &, const Options &opt)
{
    return [opt](Grid &) {
        const MsbCompressor msb(5, true);
        const BdiCompressor bdi;
        constexpr unsigned kBudget = 478;
        const auto profiles = WorkloadRegistry::memoryIntensive();

        struct Row
        {
            double msb = 0, bdi = 0;
        };
        const std::vector<Row> rows = runCollected<Row>(
            profiles.size(),
            [&](size_t i) {
                const auto blocks = sampleFor(*profiles[i]);
                return Row{fractionCompressible(blocks, msb, kBudget),
                           fractionCompressible(blocks, bdi, kBudget)};
            },
            opt.runner);

        printHeader("Ablation: MSB (COP's simplification) vs full BDI at "
                    "the 4-byte budget",
                    {"MSB", "BDI", "delta"});

        std::vector<double> msb_col, bdi_col;
        for (size_t i = 0; i < profiles.size(); ++i) {
            const double m = rows[i].msb, b = rows[i].bdi;
            printPctRow(profiles[i]->name, {m, b, m - b});
            msb_col.push_back(m);
            bdi_col.push_back(b);
        }
        std::printf("%s\n", std::string(16 + 3 * 13, '-').c_str());
        printPctRow("Average", {mean(msb_col), mean(bdi_col),
                                mean(msb_col) - mean(bdi_col)});
        std::printf("\nMSB needs only a 5-bit comparator per word (no "
                    "adders); BDI needs a\nsubtractor per element plus "
                    "base-selection logic. Floating-point blocks\nwith "
                    "mixed signs favour MSB's shifted comparison; "
                    "BDI's arithmetic deltas\nfail on left-normalised "
                    "significands (Section 3.2.1).\n");

        std::string cells;
        for (size_t i = 0; i < profiles.size(); ++i) {
            if (i)
                cells += ',';
            JsonObjectBuilder cell;
            cell.add("benchmark", profiles[i]->name);
            cell.add("msb_coverage", rows[i].msb);
            cell.add("bdi_coverage", rows[i].bdi);
            cells += cell.str();
        }
        JsonObjectBuilder top;
        top.add("bench", std::string("ablation_msb_bdi"));
        top.add("avg_msb_coverage", mean(msb_col));
        top.add("avg_bdi_coverage", mean(bdi_col));
        top.addRaw("cells", "[" + cells + "]");
        writeResultsFile("ablation_msb_bdi.json", top.str());
        return 0;
    };
}

// ---------------------------------------------------------------------
// COP-ER's optimised ECC region (Section 3.3) on the storage /
// performance plane: ECC Reg. (full region, accessed on every fill),
// naive COP-ER (full region, accessed only for incompressible fills)
// and COP-ER (pointer-indexed packed region).
// ---------------------------------------------------------------------
Render
ablationNaiveCoper(Grid &grid, const Options &)
{
    static const char *names[] = {"mcf", "bzip2", "lbm", "canneal",
                                  "streamcluster"};
    static const ControllerKind kinds[] = {
        ControllerKind::Unprotected, ControllerKind::EccRegion,
        ControllerKind::CopErNaive, ControllerKind::CopEr};
    for (const char *name : names) {
        for (const ControllerKind kind : kinds)
            grid.add(WorkloadRegistry::byName(name), kind);
    }
    return [](Grid &grid) {
        std::printf("Ablation: ECC-region designs (IPC normalised to "
                    "unprotected; region KB)\n\n");
        std::printf("%-14s %10s %10s %10s | %10s %10s\n", "benchmark",
                    "ECC Reg.", "naive", "COP-ER", "full KB",
                    "packed KB");
        std::printf("%s\n", std::string(72, '-').c_str());

        std::vector<double> base_col, naive_col, coper_col;
        for (const char *name : names) {
            const WorkloadProfile &p = WorkloadRegistry::byName(name);
            const double unprot =
                grid.result(p, ControllerKind::Unprotected).ipc;
            const double eccreg =
                grid.result(p, ControllerKind::EccRegion).ipc / unprot;
            const double naive =
                grid.result(p, ControllerKind::CopErNaive).ipc / unprot;
            const SystemResults &er =
                grid.result(p, ControllerKind::CopEr);
            const double coper = er.ipc / unprot;

            const double full_kb =
                EccRegionController::storageBytesFor(er.touchedBlocks) /
                1024.0;
            const double packed_kb = er.eccRegionBytesNoDealloc / 1024.0;
            std::printf("%-14s %10.3f %10.3f %10.3f | %10.1f %10.1f\n",
                        name, eccreg, naive, coper, full_kb, packed_kb);
            base_col.push_back(eccreg);
            naive_col.push_back(naive);
            coper_col.push_back(coper);
        }
        std::printf("%s\n", std::string(72, '-').c_str());
        std::printf("%-14s %10.3f %10.3f %10.3f\n", "geomean",
                    geomean(base_col), geomean(naive_col),
                    geomean(coper_col));
        std::printf("\nThe naive variant already recovers most of the "
                    "performance (inline check bits\nfor the ~90%% "
                    "compressible fills); the pointer-indexed region "
                    "then removes the\nstorage overhead without giving "
                    "that performance back.\n");

        grid.addScalar("geomean_eccreg", geomean(base_col));
        grid.addScalar("geomean_naive", geomean(naive_col));
        grid.addScalar("geomean_coper", geomean(coper_col));
        grid.writeJson();
        return 0;
    };
}

// ---------------------------------------------------------------------
// Sensitivity of COP's IPC to the decoder latency (paper: 4 cycles,
// Section 4), swept over 0..16 cycles.
// ---------------------------------------------------------------------
Render
ablationDecodeLatency(Grid &grid, const Options &)
{
    static const char *names[] = {"mcf", "lbm", "omnetpp", "x264"};
    static const Cycle latencies[] = {0, 2, 4, 8, 16};
    static const auto label = [](Cycle l) {
        return "cop4@" + std::to_string(l) + "cyc";
    };
    for (const char *name : names) {
        const WorkloadProfile &p = WorkloadRegistry::byName(name);
        grid.add(p, ControllerKind::Unprotected);
        for (const Cycle l : latencies) {
            SystemConfig cfg = paperConfig(ControllerKind::Cop4);
            cfg.decodeLatency = l;
            grid.add(p, cfg, label(l));
        }
    }
    return [](Grid &grid) {
        std::printf("Ablation: COP fill latency adder (IPC normalised to "
                    "unprotected)\n\n");
        std::printf("%-14s", "benchmark");
        for (const Cycle l : latencies)
            std::printf(" %7llu cyc", static_cast<unsigned long long>(l));
        std::printf("\n%s\n", std::string(14 + 5 * 12, '-').c_str());

        for (const char *name : names) {
            const WorkloadProfile &p = WorkloadRegistry::byName(name);
            const double unprot =
                grid.result(p, ControllerKind::Unprotected).ipc;
            std::printf("%-14s", name);
            for (const Cycle l : latencies)
                std::printf(" %11.3f",
                            grid.result(p.name, label(l)).ipc / unprot);
            std::printf("\n");
        }
        std::printf("\nPaper operating point: 4 cycles.\n");

        grid.writeJson();
        return 0;
    };
}

// ---------------------------------------------------------------------
// Chipkill-COP (paper Section 5 future work): coverage when
// compression must free 16 bytes per block for per-beat RS(8,6), and
// whole-chip (x8) failure recovery on protected blocks.
// ---------------------------------------------------------------------
Render
extensionChipkill(Grid &, const Options &opt)
{
    return [opt](Grid &) {
        const ChipkillCodec chipkill;
        const CopCodec cop4(CopConfig::fourByte());
        const auto profiles = WorkloadRegistry::memoryIntensive();

        struct Row
        {
            double cop = 0, ck = 0;
        };
        const std::vector<Row> rows = runCollected<Row>(
            profiles.size(),
            [&](size_t i) {
                const auto blocks = sampleFor(*profiles[i]);
                unsigned cop_ok = 0, ck_ok = 0;
                for (const auto &b : blocks) {
                    cop_ok += cop4.compressor().compressible(b);
                    ck_ok += chipkill.compressible(b);
                }
                return Row{static_cast<double>(cop_ok) / blocks.size(),
                           static_cast<double>(ck_ok) / blocks.size()};
            },
            opt.runner);

        printHeader("Extension: chipkill-COP coverage (free 16 bytes, "
                    "RS(8,6) per beat) vs COP 4-byte",
                    {"COP 4-byte", "chipkill"});

        std::vector<double> cop_col, ck_col;
        for (size_t i = 0; i < profiles.size(); ++i) {
            printPctRow(profiles[i]->name, {rows[i].cop, rows[i].ck});
            cop_col.push_back(rows[i].cop);
            ck_col.push_back(rows[i].ck);
        }
        std::printf("%s\n", std::string(16 + 2 * 13, '-').c_str());
        printPctRow("Average", {mean(cop_col), mean(ck_col)});

        // Chip-failure Monte Carlo on protected blocks.
        Rng rng(0xC41Bu);
        CacheBlock data;
        for (unsigned w = 0; w < 8; ++w)
            data.setWord64(w, 0x0000777000000000ULL + rng.below(1u << 24));
        const CopEncodeResult enc = chipkill.encode(data);
        COP_ASSERT(enc.isProtected());

        constexpr int kTrials = 20000;
        unsigned recovered = 0;
        for (int t = 0; t < kTrials; ++t) {
            CacheBlock stored = enc.stored;
            const unsigned chip = rng.below(8);
            for (unsigned beat = 0; beat < 8; ++beat) {
                stored.setByte(beat * 8 + chip,
                               stored.byte(beat * 8 + chip) ^
                                   static_cast<u8>(rng.range(1, 255)));
            }
            recovered += chipkill.decode(stored).data == data;
        }
        std::printf("\nWhole-chip (x8) failure recovery on protected "
                    "blocks: %.2f%% of %d trials\n",
                    100.0 * recovered / kTrials, kTrials);
        std::printf("Coverage is the cost: a 25%% compression target "
                    "protects far fewer blocks\nthan COP's 6.25%% — the "
                    "quantitative version of the trade-off the paper\n"
                    "leaves to future work.\n");

        std::string cells;
        for (size_t i = 0; i < profiles.size(); ++i) {
            if (i)
                cells += ',';
            JsonObjectBuilder cell;
            cell.add("benchmark", profiles[i]->name);
            cell.add("cop4_coverage", rows[i].cop);
            cell.add("chipkill_coverage", rows[i].ck);
            cells += cell.str();
        }
        JsonObjectBuilder top;
        top.add("bench", std::string("extension_chipkill"));
        top.add("avg_cop4_coverage", mean(cop_col));
        top.add("avg_chipkill_coverage", mean(ck_col));
        top.add("chip_failure_recovery",
                static_cast<double>(recovered) / kTrials);
        top.addRaw("cells", "[" + cells + "]");
        writeResultsFile("extension_chipkill.json", top.str());
        return 0;
    };
}

// ---------------------------------------------------------------------
// Memory-system energy per kilo-instruction (Section 1's motivation):
// the ECC DIMM pays a 9th chip everywhere, ECC Reg. extra traffic, COP
// neither.
// ---------------------------------------------------------------------
Render
energyComparison(Grid &grid, const Options &)
{
    static const char *names[] = {"mcf", "lbm", "omnetpp",
                                  "streamcluster"};
    static const ControllerKind kinds[] = {
        ControllerKind::Unprotected, ControllerKind::EccDimm,
        ControllerKind::EccRegion, ControllerKind::Cop4,
        ControllerKind::CopEr};
    for (const char *name : names) {
        const WorkloadProfile &p = WorkloadRegistry::byName(name);
        for (const ControllerKind kind : kinds)
            grid.add(p, kind);
    }
    return [](Grid &grid) {
        const DramEnergyModel model;
        std::printf("Memory-system energy (nJ per kilo-instruction), "
                    "4-core Table 1 system\n\n");
        std::printf("%-14s %10s %10s %10s %10s %10s\n", "benchmark",
                    "Unprot.", "ECC DIMM", "ECC Reg.", "COP", "COP-ER");
        std::printf("%s\n", std::string(70, '-').c_str());

        auto njPerKi = [&model](const SystemResults &r, unsigned chips) {
            const DramEnergyReport e =
                model.evaluate(r.dram, r.cycles, chips);
            return e.totalMj() * 1e6 /
                   (static_cast<double>(r.instructions) / 1000.0);
        };

        std::vector<double> sums(std::size(kinds), 0.0);
        for (const char *name : names) {
            const WorkloadProfile &p = WorkloadRegistry::byName(name);
            std::printf("%-14s", name);
            unsigned col = 0;
            for (const ControllerKind kind : kinds) {
                const unsigned chips =
                    kind == ControllerKind::EccDimm ? 9 : 8;
                const double nj_per_ki =
                    njPerKi(grid.result(p, kind), chips);
                std::printf(" %10.1f", nj_per_ki);
                sums[col++] += nj_per_ki;
            }
            std::printf("\n");
        }
        std::printf("%s\n", std::string(70, '-').c_str());
        std::printf("%-14s", "mean");
        for (const double s : sums)
            std::printf(" %10.1f", s / 4.0);
        std::printf("\n\nECC DIMM pays the 9th chip everywhere (~12.5%% "
                    "dynamic + background);\nECC Reg. pays extra "
                    "accesses and longer runtime; COP pays neither.\n");

        static const char *scalars[] = {"unprot", "eccdimm", "eccreg",
                                        "cop", "coper"};
        for (size_t i = 0; i < std::size(scalars); ++i) {
            grid.addScalar(std::string("mean_nj_per_ki_") + scalars[i],
                           sums[i] / 4.0);
        }
        grid.writeJson();
        return 0;
    };
}

// ---------------------------------------------------------------------
// Row-buffer policy: the embedded-ECC designs the paper builds on
// (Section 2) lean on open rows for cheap same-row metadata accesses;
// under auto-precharge the ECC-region designs lose that discount.
// ---------------------------------------------------------------------
Render
ablationRowPolicy(Grid &grid, const Options &)
{
    static const char *names[] = {"lbm", "mcf", "streamcluster"};
    static const ControllerKind kinds[] = {
        ControllerKind::Unprotected, ControllerKind::Cop4,
        ControllerKind::CopEr, ControllerKind::EccRegion};
    static const RowPolicy policies[] = {RowPolicy::Open,
                                         RowPolicy::Closed};
    static const auto label = [](ControllerKind kind, RowPolicy policy) {
        return std::string(controllerKindName(kind)) +
               (policy == RowPolicy::Open ? "@open" : "@closed");
    };
    for (const char *name : names) {
        const WorkloadProfile &p = WorkloadRegistry::byName(name);
        for (const RowPolicy policy : policies) {
            for (const ControllerKind kind : kinds) {
                SystemConfig cfg = paperConfig(kind);
                cfg.dram.rowPolicy = policy;
                grid.add(p, cfg, label(kind, policy));
            }
        }
    }
    return [](Grid &grid) {
        // The two policies must actually diverge: closed-page can
        // never score a row hit, while open-row must score plenty on
        // these streaming workloads. A dead policy switch would turn
        // this ablation into a no-op.
        for (const char *name : names) {
            for (const ControllerKind kind : kinds) {
                const DramStats &open =
                    grid.result(name, label(kind, RowPolicy::Open)).dram;
                const DramStats &closed =
                    grid.result(name, label(kind, RowPolicy::Closed)).dram;
                if (closed.rowHits != 0) {
                    COP_FATAL(std::string("closed-page policy scored row "
                                          "hits for ") +
                              name + "/" + controllerKindName(kind));
                }
                if (open.rowHits == 0) {
                    COP_FATAL(std::string("open-row policy scored no row "
                                          "hits for ") +
                              name + "/" + controllerKindName(kind));
                }
            }
        }

        std::printf("Ablation: row-buffer policy (IPC normalised to "
                    "unprotected under the same policy)\n\n");
        std::printf("%-14s | %9s %9s %9s | %9s %9s %9s\n", "",
                    "open-row", "", "", "closed", "", "");
        std::printf("%-14s | %9s %9s %9s | %9s %9s %9s\n", "benchmark",
                    "COP", "COP-ER", "ECC Reg.", "COP", "COP-ER",
                    "ECC Reg.");
        std::printf("%s\n", std::string(78, '-').c_str());

        for (const char *name : names) {
            std::printf("%-14s |", name);
            for (const RowPolicy policy : policies) {
                const double unprot =
                    grid.result(name,
                                label(ControllerKind::Unprotected, policy))
                        .ipc;
                for (const ControllerKind kind :
                     {ControllerKind::Cop4, ControllerKind::CopEr,
                      ControllerKind::EccRegion}) {
                    std::printf(" %9.3f",
                                grid.result(name, label(kind, policy)).ipc /
                                    unprot);
                }
                if (policy == RowPolicy::Open)
                    std::printf(" |");
            }
            std::printf("\n");
        }
        std::printf("\nCOP's inline check bits are policy-insensitive; "
                    "the region-based designs lean\non row locality for "
                    "their metadata traffic.\n");

        grid.writeJson();
        return 0;
    };
}

// ---------------------------------------------------------------------
// Scrubbing, analytic x live: each scrub interval runs COP 4-byte with
// the live injector flipping single bits at an accelerated rate and
// the patrol scrubber sweeping at that interval; the same run's
// vulnerability log is fed to the analytic model at the injector's
// equivalent FIT rate, so measured and predicted sit side by side.
// ---------------------------------------------------------------------

/** Accelerated single-bit fault rate (events per megacycle). */
constexpr double kScrubEventsPerMegacycle = 4000.0;

/**
 * The FIT/Mbit rate at which the analytic model's per-bit flip process
 * matches the injector: rate events/Mcycle, one flip each, uniform
 * over the run's footprint bits.
 */
double
equivalentFitPerMbit(double total_bits, double core_ghz)
{
    const double lambda_per_bit_per_cycle =
        kScrubEventsPerMegacycle * 1e-6 / total_bits;
    const double cycles_per_hour = 3600.0 * core_ghz * 1e9;
    return lambda_per_bit_per_cycle * cycles_per_hour * (1u << 20) * 1e9;
}

Render
ablationScrubbing(Grid &grid, const Options &)
{
    struct Point
    {
        const char *label;
        Cycle interval; ///< Patrol scrub interval, 0 = disabled.
    };
    static const Point points[] = {
        {"disabled", 0},
        {"2 Mcycles", 2000000},
        {"1 Mcycles", 1000000},
        {"500 kcycles", 500000},
        {"250 kcycles", 250000},
    };

    // One memory-intensive benchmark with its working set shrunk so
    // uniform strikes mostly find warm images (see fault_campaign).
    WorkloadProfile profile = *WorkloadRegistry::memoryIntensive()[0];
    profile.footprintBlocks = 1u << 12;
    for (const Point &point : points) {
        SystemConfig cfg = paperConfig(ControllerKind::Cop4);
        // A small LLC keeps blocks cycling through DRAM, so
        // accumulated faults are actually observed at fills.
        cfg.llc = CacheConfig{64ULL << 10, 8, 34};
        cfg.fault.enabled = true;
        cfg.fault.eventsPerMegacycle = kScrubEventsPerMegacycle;
        cfg.fault.flipsPerEvent = 1;
        cfg.fault.seed = 0x5C22B;
        cfg.fault.scrubIntervalCycles = point.interval;
        grid.add(profile, cfg, point.label);
    }
    return [profile](Grid &grid) {
        const u64 regions = profile.sharedFootprint ? 1 : 4;
        const double total_bits = static_cast<double>(regions) *
                                  profile.footprintBlocks * kBlockBits;

        std::printf("Scrubbing sweep under COP 4-byte, live single-bit "
                    "injection at %.0f events/Mcycle\n(%s, analytic "
                    "column = error model on the same run's "
                    "vulnerability log\nat the injector-equivalent FIT "
                    "rate)\n\n",
                    kScrubEventsPerMegacycle, profile.name.c_str());
        std::printf("%-13s %10s %10s %12s %12s %12s\n", "interval",
                    "predicted", "measured", "scrub-corr", "scrub-reads",
                    "vs no scrub");
        std::printf("%s\n", std::string(74, '-').c_str());

        const SystemResults &base = grid.result(0);
        const double base_measured =
            static_cast<double>(base.errors.detected + base.errors.silent);
        std::string cells;
        for (size_t i = 0; i < std::size(points); ++i) {
            const SystemResults &r = grid.result(i);
            ReliabilityParams params;
            params.fitPerMbit =
                equivalentFitPerMbit(total_bits, params.coreGHz);
            params.scrubIntervalCycles =
                static_cast<double>(points[i].interval);
            const double predicted =
                ErrorRateModel(params).evaluate(r.vuln).uncorrected;
            const u64 measured = r.errors.detected + r.errors.silent;

            std::printf("%-13s %10.2f %10llu %12llu %12llu %11.2fx\n",
                        points[i].label, predicted,
                        static_cast<unsigned long long>(measured),
                        static_cast<unsigned long long>(
                            r.errors.scrubCorrected),
                        static_cast<unsigned long long>(
                            r.errors.scrubReads),
                        base_measured /
                            (measured ? static_cast<double>(measured)
                                      : base_measured));

            if (i)
                cells += ',';
            JsonObjectBuilder cell;
            cell.add("scrub_interval", std::string(points[i].label));
            cell.add("scrub_interval_cycles",
                     static_cast<u64>(points[i].interval));
            cell.add("predicted_uncorrected", predicted);
            cell.add("measured_uncorrected", measured);
            cell.add("scrub_corrected", r.errors.scrubCorrected);
            cell.add("scrub_reads", r.errors.scrubReads);
            cell.add("fault_events", r.errors.faultEvents);
            cells += cell.str();
        }
        std::printf("\nDouble-error probability scales with the square "
                    "of the accumulation window,\nso an S-times shorter "
                    "window cuts the uncorrected rate ~S-fold over a "
                    "fixed\nresidency (T/S windows of S^2 risk); the live "
                    "scrubber additionally pays the\nDRAM reads counted "
                    "above. Measured sits below predicted at these "
                    "accelerated\nrates because the recovery pipeline "
                    "also heals on every demand read\n(scrub-on-read), "
                    "which the paper's analytic model does not credit; "
                    "the\nscrub-interval *trend* is the cross-validated "
                    "quantity.\n");

        JsonObjectBuilder top;
        top.add("bench", std::string("ablation_scrubbing"));
        top.add("events_per_megacycle", kScrubEventsPerMegacycle);
        top.addRaw("cells", "[" + cells + "]");
        writeResultsFile("ablation_scrubbing.json", top.str());
        return 0;
    };
}

// ---------------------------------------------------------------------
// Live fault campaign: (benchmark x scheme x flips-per-event x on-die
// ECC) full-system runs with the injector striking stored images at
// an accelerated rate, recovery armed and verifyData as the SDC
// oracle. Each scheme's measured outcome split sits next to the error
// model's conditional outcome. +od rows add per-chip (136,128) SEC
// beneath the scheme; 3-flip rows exercise the model's exact 3-flip
// census; +ad rows run adaptive ECC-region capacity with faults in
// flight. --quick runs a reduced grid that still yields every scalar
// scripts/check_perf.py gates. The split is per scheme, not per
// protection class: a 2-flip cross-word pattern makes a compressed
// block decode as raw, so its silent fill lands in the raw class.
// ---------------------------------------------------------------------

/**
 * Accelerated fault rate: hundreds of events per cell at bench length,
 * while multi-event pile-up on one block stays a small correction.
 */
constexpr double kCampaignEventsPerMegacycle = 800.0;

/** One campaign cell beyond the (benchmark) axis. */
struct CampaignCell
{
    ControllerKind kind;
    unsigned flips;
    bool ondie = false;
    bool adaptive = false;

    std::string
    label() const
    {
        std::string out = std::string(controllerKindName(kind)) + " f" +
                          std::to_string(flips);
        if (ondie)
            out += "+od";
        if (adaptive)
            out += "+ad";
        return out;
    }
};

/**
 * The protection class covering the overwhelming share of a scheme's
 * stored blocks on compressible data: the class whose conditional
 * outcome the measured split should track.
 */
VulnClass
primaryClass(ControllerKind kind)
{
    switch (kind) {
      case ControllerKind::Unprotected: return VulnClass::Unprotected;
      case ControllerKind::EccDimm: return VulnClass::EccDimm;
      case ControllerKind::EccRegion: return VulnClass::WideCode;
      case ControllerKind::Cop4: return VulnClass::CopProtected4;
      case ControllerKind::Cop8: return VulnClass::CopProtected8;
      // COP-ER turns COP's silent misdecodes into detected losses: a
      // cross-word double decodes as raw, but the pointer chase then
      // hits an unallocated entry, so every uncorrected outcome is
      // detected — the CopErUncompressed conditional split.
      case ControllerKind::CopEr: return VulnClass::CopErUncompressed;
      case ControllerKind::CopErNaive:
        return VulnClass::CopErUncompressed;
    }
    COP_PANIC("bad controller kind");
}

double
frac(u64 part, u64 whole)
{
    return whole ? static_cast<double>(part) / whole : 0.0;
}

Render
faultCampaign(Grid &grid, const Options &opt)
{
    std::vector<CampaignCell> cells;
    if (opt.quick) {
        for (const ControllerKind kind :
             {ControllerKind::EccDimm, ControllerKind::Cop4,
              ControllerKind::CopEr}) {
            cells.push_back({kind, 2, false, false});
            cells.push_back({kind, 2, true, false});
        }
    } else {
        for (const ControllerKind kind :
             {ControllerKind::Unprotected, ControllerKind::EccDimm,
              ControllerKind::EccRegion, ControllerKind::Cop4,
              ControllerKind::Cop8, ControllerKind::CopEr,
              ControllerKind::CopErNaive}) {
            for (const unsigned flips : {1u, 2u}) {
                cells.push_back({kind, flips, false, false});
                cells.push_back({kind, flips, true, false});
            }
        }
        // 3 flips: the analytic columns come from the exact census's
        // triple counts, the most flips it counts.
        for (const ControllerKind kind :
             {ControllerKind::EccDimm, ControllerKind::Cop4,
              ControllerKind::CopEr})
            cells.push_back({kind, 3, false, false});
    }
    // Adaptive-capacity cells: the two schemes with an ECC region.
    for (const ControllerKind kind :
         {ControllerKind::EccRegion, ControllerKind::CopEr})
        cells.push_back({kind, 1, false, true});

    // Memory-intensive benchmarks with the working set shrunk so a
    // bench-length run touches a substantial share of it: uniform
    // strikes over a pristine multi-gigabyte footprint would nearly
    // all land on blocks with no stored image yet (cold, never
    // observed), starving the statistics.
    const auto intensive = WorkloadRegistry::memoryIntensive();
    std::vector<std::string> profiles;
    const u64 epochs = opt.quick ? std::min<u64>(benchEpochs(), 3000)
                                 : benchEpochs();
    for (size_t i = 0; i < (opt.quick ? 1u : 2u); ++i) {
        WorkloadProfile p = *intensive[i];
        p.footprintBlocks = 1u << 13; // 512 KB/core: misses, but warm
        profiles.push_back(p.name);
        for (const CampaignCell &cell : cells) {
            SystemConfig cfg = paperConfig(cell.kind);
            cfg.epochsPerCore = epochs;
            // Shrink the LLC so faulted blocks are re-read from DRAM
            // (a fault is only observable at a fill).
            cfg.llc = CacheConfig{256ULL << 10, 8, 34};
            cfg.fault.enabled = true;
            cfg.fault.eventsPerMegacycle = kCampaignEventsPerMegacycle;
            cfg.fault.flipsPerEvent = cell.flips;
            cfg.fault.seed = 0xC0FFEE;
            cfg.fault.ondieEcc = cell.ondie;
            cfg.adaptiveEccCapacity = cell.adaptive;
            grid.add(p, cfg, cell.label());
        }
    }

    return [cells, profiles, opt](Grid &grid) {
        std::printf("Fault campaign: live injection at %.0f "
                    "events/Mcycle, recovery armed%s\n",
                    kCampaignEventsPerMegacycle,
                    opt.quick ? " (--quick grid)" : "");
        std::printf("(observed = fault outcomes at demand reads, summed "
                    "over %zu benchmarks;\n +od = per-chip on-die SEC "
                    "beneath the scheme, +ad = adaptive ECC capacity)"
                    "\n\n",
                    profiles.size());
        std::printf("%-14s %2s %6s  %7s %7s %7s %7s   %7s %7s %7s\n",
                    "scheme", "f", "obs", "benign", "corr", "DUE",
                    "silent", "corr*", "DUE*", "silent*");
        std::printf("%s\n", std::string(85, '-').c_str());

        double cop4MeasSilent2 = -1, cop4ModelSilent2 = -1;
        double cop4OndieSilent2 = -1;
        u64 ondieF2Injected = 0, ondieF2Miscorrected = 0;
        u64 adaptiveReclaimed = 0, adaptiveDemotions = 0;
        u64 adaptiveSilent = 0, injectSkipped = 0;
        for (const CampaignCell &cell : cells) {
            // Scheme-level outcome totals over the benchmarks.
            u64 benign = 0, corrected = 0, detected = 0, silent = 0;
            u64 odInjected = 0, odMiscorrected = 0;
            for (const std::string &name : profiles) {
                const SystemResults &r = grid.result(name, cell.label());
                benign += r.errors.benign;
                corrected += r.errors.corrected;
                detected += r.errors.detected;
                silent += r.errors.silent;
                odInjected += r.errors.ondieInjected;
                odMiscorrected += r.errors.ondieMiscorrected;
                injectSkipped += r.errors.injectSkipped;
                if (cell.adaptive) {
                    adaptiveReclaimed += r.adaptive.slotsReclaimed;
                    adaptiveDemotions += r.adaptive.demotions;
                    adaptiveSilent += r.errors.silent;
                }
            }
            const u64 n = benign + corrected + detected + silent;
            // Analytic columns: raw-flip conditional outcome, or —
            // under the on-die filter — the outcome conditioned on a
            // pattern arriving at the rank-level decoder at all.
            ConditionalOutcome model;
            if (cell.ondie) {
                model = OndieEcc::model(primaryClass(cell.kind),
                                        cell.flips)
                            .onArrival;
            } else {
                model = ErrorRateModel::conditionalOutcome(
                    primaryClass(cell.kind), cell.flips);
            }
            std::printf("%-14s %2u %6llu  %6.1f%% %6.1f%% %6.1f%% "
                        "%6.1f%%   %6.1f%% %6.1f%% %6.1f%%\n",
                        cell.label().c_str(), cell.flips,
                        static_cast<unsigned long long>(n),
                        100.0 * frac(benign, n),
                        100.0 * frac(corrected, n),
                        100.0 * frac(detected, n),
                        100.0 * frac(silent, n), 100.0 * model.corrected,
                        100.0 * model.detected, 100.0 * model.silent);
            if (cell.kind == ControllerKind::Cop4 && cell.flips == 2 &&
                !cell.adaptive) {
                const u64 uncorrected = detected + silent;
                if (cell.ondie) {
                    cop4OndieSilent2 = frac(silent, uncorrected);
                } else {
                    cop4MeasSilent2 = frac(silent, uncorrected);
                    cop4ModelSilent2 =
                        model.silent / (model.silent + model.detected);
                }
            }
            if (cell.ondie && cell.flips == 2) {
                ondieF2Injected += odInjected;
                ondieF2Miscorrected += odMiscorrected;
            }
        }
        std::printf("\n(corr*/DUE*/silent* = analytic conditional outcome "
                    "for exactly f uniform flips\nin the scheme's "
                    "dominant protection class; +od rows condition on "
                    "the pattern\nsurviving the on-die filter. Measured "
                    "rows drift from the model when blocks\nare stored "
                    "raw, or when separate events pile up on one block "
                    "before its\nnext read.)\n");

        const double ondieMcFrac =
            frac(ondieF2Miscorrected, ondieF2Injected);
        std::printf("\non-die filter, f=2 raw events: %llu injected, "
                    "%.3f miscorrected on die\n",
                    static_cast<unsigned long long>(ondieF2Injected),
                    ondieMcFrac);
        std::printf("adaptive cells (f=1): %llu region slots reclaimed, "
                    "%llu demotions, %llu silent\n",
                    static_cast<unsigned long long>(adaptiveReclaimed),
                    static_cast<unsigned long long>(adaptiveDemotions),
                    static_cast<unsigned long long>(adaptiveSilent));

        grid.addScalar("events_per_megacycle",
                       kCampaignEventsPerMegacycle);
        grid.addScalar("cop4_f2_measured_silent_frac", cop4MeasSilent2);
        grid.addScalar("cop4_f2_model_silent_frac", cop4ModelSilent2);
        grid.addScalar("cop4_f2_ondie_silent_frac", cop4OndieSilent2);
        grid.addScalar("ondie_f2_miscorrect_frac", ondieMcFrac);
        grid.addScalar("adaptive_slots_reclaimed",
                       static_cast<double>(adaptiveReclaimed));
        grid.addScalar("adaptive_demotions",
                       static_cast<double>(adaptiveDemotions));
        grid.addScalar("adaptive_f1_silent",
                       static_cast<double>(adaptiveSilent));
        grid.addScalar("inject_skipped",
                       static_cast<double>(injectSkipped));
        grid.writeJson();
        return 0;
    };
}

// ---------------------------------------------------------------------
// Field failure modes (Section 4, after Sridharan & Liberty): share of
// each mode fully recovered per scheme, Monte Carlo through the real
// decoders. Single-bit and single-column failures are corrected by
// SECDED-class schemes alike; only chipkill survives a dead chip.
// ---------------------------------------------------------------------
Render
failureModeStudy(Grid &, const Options &opt)
{
    return [opt](Grid &) {
        constexpr u64 kTrials = 4000;
        Rng rng(1);
        BlockGenParams params;

        // Compressible data for COP/chipkill (19+ shared MSBs —
        // chipkill's deep budget is out of reach for FP mantissas),
        // incompressible for COP-ER.
        CacheBlock fp;
        for (unsigned w = 0; w < 8; ++w)
            fp.setWord64(w, 0x0000123400000000ULL + rng.below(1u << 24));
        CacheBlock raw = generateBlock(BlockCategory::Random, params, rng);
        const CopCodec cop4(CopConfig::fourByte());
        while (cop4.encode(raw).status != EncodeStatus::Unprotected)
            raw = generateBlock(BlockCategory::Random, params, rng);
        const CopCodec cop8(CopConfig::eightByte());
        const CoperCodec coper(cop4);
        const ChipkillCodec chipkill;

        constexpr unsigned kSchemes = 5;
        static const char *scheme_names[kSchemes] = {
            "ECC DIMM", "COP-4B", "COP-8B", "COP-ER", "chipkill"};

        // One cell per (mode, scheme), each with a private injector
        // stream so cells parallelise bit-identically.
        const std::vector<double> recovered_pct = runCollected<double>(
            kFailureModes * kSchemes,
            [&](size_t cell) {
                const auto mode =
                    static_cast<FailureMode>(cell / kSchemes);
                const FaultInjector::FlipGen gen =
                    [mode](Rng &r, std::vector<unsigned> &bits) {
                        generateFailureFlips(mode, r, bits);
                    };
                FaultInjector injector(0x57CDu + cell);
                InjectionOutcome out;
                switch (cell % kSchemes) {
                  case 0:
                    out = injector.injectEccDimmPattern(raw, gen, kTrials);
                    break;
                  case 1:
                    out = injector.injectCopPattern(cop4, fp, gen, kTrials);
                    break;
                  case 2:
                    out = injector.injectCopPattern(cop8, fp, gen, kTrials);
                    break;
                  case 3:
                    out = injector.injectCopErPattern(coper, raw, gen,
                                                      kTrials);
                    break;
                  default:
                    out = injector.injectChipkillPattern(chipkill, fp,
                                                         gen, kTrials);
                    break;
                }
                return 100.0 * (out.benign + out.corrected) / out.trials;
            },
            opt.runner);

        std::printf("Failure-mode study: %% of events fully recovered "
                    "(%llu trials/cell)\n",
                    static_cast<unsigned long long>(kTrials));
        std::printf("field fractions after Sridharan & Liberty (paper "
                    "Section 4)\n\n");
        std::printf("%-18s %6s %9s %8s %8s %8s %9s\n", "mode", "field",
                    "ECC DIMM", "COP-4B", "COP-8B", "COP-ER", "chipkill");
        std::printf("%s\n", std::string(72, '-').c_str());

        for (unsigned m = 0; m < kFailureModes; ++m) {
            const auto mode = static_cast<FailureMode>(m);
            const double *row = &recovered_pct[m * kSchemes];
            std::printf("%-18s %5.1f%% %8.1f%% %7.1f%% %7.1f%% %7.1f%% "
                        "%8.1f%%\n",
                        failureModeName(mode),
                        100 * failureModeFieldFraction(mode), row[0],
                        row[1], row[2], row[3], row[4]);
        }

        std::printf("\nReading: SECDED-class schemes (ECC DIMM, COP, "
                    "COP-ER) recover single-bit and\nsingle-column "
                    "events and lose same-word/row events — the paper's "
                    "premise for\nusing a single-bit failure model. Only "
                    "the chipkill extension survives a dead\nchip. (COP "
                    "protects its compressible majority; its "
                    "incompressible residue is\nthe Figure 10 gap.)\n");

        std::string cells;
        for (unsigned m = 0; m < kFailureModes; ++m) {
            for (unsigned s = 0; s < kSchemes; ++s) {
                if (m + s)
                    cells += ',';
                JsonObjectBuilder cell;
                cell.add("mode", std::string(failureModeName(
                                     static_cast<FailureMode>(m))));
                cell.add("scheme", std::string(scheme_names[s]));
                cell.add("recovered_pct", recovered_pct[m * kSchemes + s]);
                cells += cell.str();
            }
        }
        JsonObjectBuilder top;
        top.add("bench", std::string("failure_mode_study"));
        top.add("trials_per_cell", kTrials);
        top.addRaw("cells", "[" + cells + "]");
        writeResultsFile("failure_mode_study.json", top.str());
        return 0;
    };
}

// ---------------------------------------------------------------------
// Trace replay: captures per-core traces of one benchmark (--profile,
// default mcf), runs each scheme from the synthetic generator and from
// binary / text / gzip replays of the capture, and requires every
// replay cell's results JSON to equal its synthetic twin's (DESIGN.md
// §9); the driver exits non-zero on any mismatch.
// ---------------------------------------------------------------------

/** Capture one core's stream in all three encodings. */
void
captureAllFormats(const WorkloadProfile &profile, unsigned core,
                  u64 epochs, const std::filesystem::path &stem)
{
    {
        std::ofstream out(stem.string() + ".coptrc", std::ios::binary);
        if (!out)
            COP_FATAL("cannot write " + stem.string() + ".coptrc");
        captureTrace(profile, core, epochs, out);
    }
    {
        const auto src = openTraceSource(stem.string() + ".coptrc");
        std::ofstream out(stem.string() + ".txt");
        writeTextTrace(*src, out);
    }
    {
        const auto src = openTraceSource(stem.string() + ".coptrc");
        auto file = std::make_unique<std::ofstream>(
            stem.string() + ".coptrc.gz", std::ios::binary);
        const auto gz = makeGzipOstream(std::move(file));
        TraceWriter writer(*gz, src->declaredEpochs());
        Epoch epoch;
        while (src->next(epoch))
            writer.write(epoch);
        writer.finish();
    }
}

Render
traceReplay(Grid &grid, const Options &opt)
{
    struct SchemeRow
    {
        ControllerKind kind;
        const char *key;
    };
    static const SchemeRow schemes[] = {
        {ControllerKind::Cop4, "cop4"},
        {ControllerKind::CopEr, "coper"},
    };
    static const char *sources[] = {"bin", "text", "gz"};
    static const char *extensions[] = {".coptrc", ".txt", ".coptrc.gz"};

    const WorkloadProfile &profile = WorkloadRegistry::byName(opt.profile);
    const u64 epochs = benchEpochs(2000);
    const auto dir = std::filesystem::temp_directory_path() /
                     "cop_trace_replay_bench";
    std::filesystem::create_directories(dir);

    // Capture each core's stream once, in all three encodings.
    const unsigned cores = paperConfig(ControllerKind::Cop4).cores;
    const auto stem = [&](unsigned core) {
        return dir / (profile.name + ".c" + std::to_string(core));
    };
    for (unsigned c = 0; c < cores; ++c)
        captureAllFormats(profile, c, epochs, stem(c));

    // Every scheme from the synthetic generator and from each encoding
    // of the captured streams.
    for (const SchemeRow &scheme : schemes) {
        SystemConfig cfg = paperConfig(scheme.kind);
        cfg.epochsPerCore = epochs;
        grid.add(profile, cfg, std::string(scheme.key) + "/synthetic");
        for (size_t s = 0; s < std::size(sources); ++s) {
            std::vector<std::string> paths;
            for (unsigned c = 0; c < cores; ++c)
                paths.push_back(stem(c).string() + extensions[s]);
            SystemConfig replay = cfg;
            replay.epochSource = makeTraceReplayFactory(profile, paths);
            grid.add(profile, replay,
                     std::string(scheme.key) + "/" + sources[s]);
        }
    }

    return [name = profile.name](Grid &grid) {
        std::printf("%-10s %-6s %s\n", "scheme", "source", "verdict");
        unsigned mismatches = 0;
        for (const SchemeRow &scheme : schemes) {
            std::string synth;
            appendResultsJson(
                synth,
                grid.result(name, std::string(scheme.key) + "/synthetic"));
            for (const char *source : sources) {
                std::string replay;
                appendResultsJson(
                    replay,
                    grid.result(name, std::string(scheme.key) + "/" +
                                          source));
                const bool match = replay == synth;
                mismatches += !match;
                std::printf("%-10s %-6s %s\n", scheme.key, source,
                            match ? "byte-identical" : "MISMATCH");
            }
        }
        grid.addScalar("replay_mismatches",
                       static_cast<double>(mismatches));
        grid.writeJson();
        if (mismatches != 0) {
            std::fprintf(stderr,
                         "trace_replay: %u replay cell(s) diverged from "
                         "their synthetic twin\n",
                         mismatches);
            return 1;
        }
        return 0;
    };
}

/** The entry table, in render order. */
struct Entry
{
    const char *name;
    Render (*declare)(Grid &, const Options &);
};

constexpr Entry kEntries[] = {
    {"fig01_fpc_ratio_sweep", fig01},
    {"fig04_msb_shift", fig04},
    {"fig08_compressibility_8b", fig08},
    {"fig09_compressibility_4b", fig09},
    {"fig10_error_rate", fig10},
    {"fig11_performance", fig11},
    {"fig12_ecc_storage", fig12},
    {"table3_alias_census", table3},
    {"ecc_dimm_compare", eccDimmCompare},
    {"ablation_threshold", ablationThreshold},
    {"ablation_hash", ablationHash},
    {"ablation_msb_bdi", ablationMsbBdi},
    {"ablation_naive_coper", ablationNaiveCoper},
    {"ablation_decode_latency", ablationDecodeLatency},
    {"extension_chipkill", extensionChipkill},
    {"energy_comparison", energyComparison},
    {"ablation_row_policy", ablationRowPolicy},
    {"ablation_scrubbing", ablationScrubbing},
    {"fault_campaign", faultCampaign},
    {"failure_mode_study", failureModeStudy},
    {"trace_replay", traceReplay},
};

double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

int
run(int argc, char **argv)
{
    Options opt;
    opt.runner = parseRunnerOptions(argc, argv);
    std::vector<const Entry *> selected;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            opt.quick = true;
        } else if (arg == "--config") {
            opt.config = true;
        } else if (arg == "--profile") {
            if (i + 1 >= argc)
                COP_FATAL("--profile needs a value");
            opt.profile = argv[++i];
        } else if (arg == "--jobs") {
            ++i; // value checked by parseRunnerOptions
        } else if (arg.rfind("--", 0) != 0) {
            const auto it = std::find_if(
                std::begin(kEntries), std::end(kEntries),
                [&](const Entry &e) { return arg == e.name; });
            if (it == std::end(kEntries))
                COP_FATAL("unknown figure: " + arg);
            selected.push_back(it);
        }
    }
    if (selected.empty()) {
        for (const Entry &e : kEntries)
            selected.push_back(&e);
    }
    // Table order whatever the command-line order; each entry once.
    std::sort(selected.begin(), selected.end());
    selected.erase(std::unique(selected.begin(), selected.end()),
                   selected.end());

    const auto start = std::chrono::steady_clock::now();
    std::deque<Grid> grids;
    std::vector<Render> renders;
    for (const Entry *e : selected) {
        grids.emplace_back(e->name);
        renders.push_back(e->declare(grids.back(), opt));
    }

    // Each distinct cell runs once; every grid cell points at the
    // result of its distinct representative.
    std::vector<Grid::Cell *> distinct;
    std::vector<size_t> owner; // per grid cell, index into distinct
    for (Grid &grid : grids) {
        for (Grid::Cell &cell : grid.cells()) {
            size_t d = 0;
            while (d < distinct.size() &&
                   !sameCell(distinct[d]->profile, distinct[d]->cfg,
                             cell.profile, cell.cfg))
                ++d;
            if (d == distinct.size())
                distinct.push_back(&cell);
            owner.push_back(d);
        }
    }
    std::vector<double> wall_ms;
    const auto cells_start = std::chrono::steady_clock::now();
    const std::vector<SystemResults> results = runCollected<SystemResults>(
        distinct.size(),
        [&](size_t i) {
            System sys(distinct[i]->profile, distinct[i]->cfg);
            return sys.run();
        },
        opt.runner, &wall_ms);
    const double cells_ms = msSince(cells_start);
    size_t next = 0;
    for (Grid &grid : grids) {
        for (Grid::Cell &cell : grid.cells())
            cell.result = &results[owner[next++]];
    }

    int status = 0;
    std::vector<double> render_ms;
    for (size_t i = 0; i < grids.size(); ++i) {
        const auto render_start = std::chrono::steady_clock::now();
        std::printf("==> %s <==\n", grids[i].name().c_str());
        status |= renders[i](grids[i]);
        std::fflush(stdout);
        render_ms.push_back(msSince(render_start));
    }
    const double total_ms = msSince(start);

    double cell_sum_ms = 0;
    std::string cells;
    for (size_t i = 0; i < distinct.size(); ++i) {
        if (i)
            cells += ',';
        JsonObjectBuilder cell;
        cell.add("benchmark", distinct[i]->profile.name);
        cell.add("scheme", distinct[i]->scheme);
        cell.add("wall_ms", wall_ms[i]);
        cells += cell.str();
        cell_sum_ms += wall_ms[i];
    }
    std::string figures;
    for (size_t i = 0; i < grids.size(); ++i) {
        if (i)
            figures += ',';
        JsonObjectBuilder fig;
        fig.add("figure", grids[i].name());
        fig.add("cells", static_cast<u64>(grids[i].cells().size()));
        fig.add("render_ms", render_ms[i]);
        figures += fig.str();
    }
    JsonObjectBuilder timing;
    timing.add("jobs", static_cast<u64>(opt.runner.effectiveJobs()));
    timing.add("total_cells", static_cast<u64>(owner.size()));
    timing.add("distinct_cells", static_cast<u64>(distinct.size()));
    timing.add("cell_ms_sum", cell_sum_ms);
    timing.add("cells_elapsed_ms", cells_ms);
    timing.add("elapsed_ms", total_ms);
    timing.addRaw("cells", "[" + cells + "]");
    timing.addRaw("figures", "[" + figures + "]");
    writeResultsFile("figures.timing.json", timing.str());
    std::fprintf(stderr,
                 "[figures] %zu figures, %zu cells, %zu distinct, "
                 "jobs=%u, cell-time sum %.0f ms, cells %.0f ms, "
                 "elapsed %.0f ms\n",
                 grids.size(), owner.size(), distinct.size(),
                 opt.runner.effectiveJobs(), cell_sum_ms, cells_ms,
                 total_ms);
    return status;
}

} // namespace
} // namespace cop::bench

int
main(int argc, char **argv)
{
    return cop::bench::run(argc, argv);
}
