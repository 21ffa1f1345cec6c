/**
 * @file
 * Bench glue over the experiment runner (src/sim/runner.hpp): declare
 * a (benchmark × scheme) grid of full-system cells, execute it under
 * COP_BENCH_JOBS workers (or --serial), then format tables from the
 * collected results exactly as the old hand-rolled serial loops did —
 * declaration, execution and formatting are separate phases, so the
 * printed table is byte-identical whatever the worker count.
 *
 * Each run also writes a machine-readable results sink:
 *   bench/results/<bench>.json         deterministic per-cell metrics
 *   bench/results/<bench>.timing.json  per-cell wall times (varies)
 * The directory is COP_BENCH_RESULTS if set, else bench/results
 * relative to the working directory.
 */

#ifndef COP_BENCH_RUN_UTIL_HPP
#define COP_BENCH_RUN_UTIL_HPP

#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <utility>

#include "sim/runner.hpp"
#include "sim_util.hpp"

namespace cop::bench {

/**
 * Directory for per-cell stats traces (JSONL), or "" when tracing is
 * off. Setting COP_TRACE_STATS=<dir> makes every grid cell write
 * <dir>/<bench>.<benchmark>.<scheme>.jsonl via
 * SystemConfig::traceStatsPath; leaving it unset keeps every run
 * byte-identical to a build without the observability layer.
 */
inline std::string
traceStatsDir()
{
    if (const char *env = std::getenv("COP_TRACE_STATS"))
        return env;
    return "";
}

/** Directory for the JSON results sinks. */
inline std::string
resultsDir()
{
    if (const char *env = std::getenv("COP_BENCH_RESULTS"))
        return env;
    return "bench/results";
}

/** Incremental builder for one flat JSON object. */
class JsonObjectBuilder
{
  public:
    void
    add(const std::string &name, u64 value)
    {
        prefix(name);
        body_ += std::to_string(static_cast<unsigned long long>(value));
    }

    void
    add(const std::string &name, double value)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        prefix(name);
        body_ += buf;
    }

    void
    add(const std::string &name, const std::string &value)
    {
        prefix(name);
        body_ += '"';
        body_ += jsonEscape(value);
        body_ += '"';
    }

    /** Add a pre-serialised JSON value (object, array, ...). */
    void
    addRaw(const std::string &name, const std::string &json)
    {
        prefix(name);
        body_ += json;
    }

    std::string str() const { return "{" + body_ + "}"; }

  private:
    void
    prefix(const std::string &name)
    {
        if (!body_.empty())
            body_ += ',';
        body_ += '"';
        body_ += jsonEscape(name);
        body_ += "\":";
    }

    std::string body_;
};

/** Write @p text to @p dir/@p filename, creating the directory. */
inline void
writeResultsFile(const std::string &filename, const std::string &text)
{
    const std::filesystem::path dir(resultsDir());
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr,
                     "[runner] warning: cannot create %s (%s); "
                     "skipping %s\n",
                     dir.string().c_str(), ec.message().c_str(),
                     filename.c_str());
        return;
    }
    const std::filesystem::path path = dir / filename;
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "[runner] warning: cannot write %s\n",
                     path.string().c_str());
        return;
    }
    out << text << "\n";
}

/**
 * A grid of independent full-system cells. Usage:
 *
 *   GridRunner grid("fig11_performance", argc, argv);
 *   for (p : profiles) for (k : kinds) grid.add(*p, k);
 *   grid.run();
 *   ... format the table from grid.result(p, k) ...
 *   grid.writeJson();
 */
class GridRunner
{
  public:
    GridRunner(std::string bench_name, int argc, char **argv)
        : name_(std::move(bench_name)),
          opts_(parseRunnerOptions(argc, argv))
    {
    }

    /** Add a Table-1 cell for @p kind; scheme label is the kind name. */
    size_t
    add(const WorkloadProfile &profile, ControllerKind kind)
    {
        return add(profile, paperConfig(kind), controllerKindName(kind));
    }

    /** Add a custom-config cell under an explicit scheme label. */
    size_t
    add(const WorkloadProfile &profile, const SystemConfig &cfg,
        const std::string &scheme_label)
    {
        COP_ASSERT(results_.empty()); // declare before run()
        const size_t idx = cells_.size();
        cells_.push_back(Cell{&profile, cfg, scheme_label});
        const bool fresh =
            index_.emplace(key(profile.name, scheme_label), idx).second;
        COP_ASSERT(fresh); // duplicate (benchmark, scheme) cell
        attachTraceSink(cells_.back());
        return idx;
    }

    /** Execute every declared cell; results keyed by cell. */
    void
    run()
    {
        COP_ASSERT(results_.empty());
        applySimThreads();
        using Clock = std::chrono::steady_clock;
        const Clock::time_point start = Clock::now();
        results_ = runCollected<SystemResults>(
            cells_.size(),
            [this](size_t i) {
                System sys(*cells_[i].profile, cells_[i].cfg);
                return sys.run();
            },
            opts_, &wallMs_);
        elapsedMs_ = std::chrono::duration<double, std::milli>(
                         Clock::now() - start)
                         .count();
        reportTiming();
    }

    const SystemResults &
    result(size_t idx) const
    {
        COP_ASSERT(idx < results_.size());
        return results_[idx];
    }

    const SystemResults &
    result(const WorkloadProfile &profile, ControllerKind kind) const
    {
        return result(profile.name, controllerKindName(kind));
    }

    const SystemResults &
    result(const std::string &bench, const std::string &scheme) const
    {
        const auto it = index_.find(key(bench, scheme));
        if (it == index_.end())
            COP_PANIC("no grid cell (" + bench + ", " + scheme + ")");
        return result(it->second);
    }

    size_t cellCount() const { return cells_.size(); }
    double totalWallMs() const { return totalMs_; }
    const RunnerOptions &options() const { return opts_; }

    /** Attach a derived scalar to the JSON sink (e.g. a geomean). */
    void
    addScalar(const std::string &name, double value)
    {
        derived_.add(name, value);
    }

    /** Write the deterministic results sink and the timing sidecar. */
    void
    writeJson() const
    {
        COP_ASSERT(results_.size() == cells_.size());
        std::string cells;
        for (size_t i = 0; i < cells_.size(); ++i) {
            if (i)
                cells += ',';
            JsonObjectBuilder cell;
            cell.add("benchmark", cells_[i].profile->name);
            cell.add("scheme", cells_[i].scheme);
            cell.add("epochs_per_core", cells_[i].cfg.epochsPerCore);
            std::string metrics;
            appendResultsJson(metrics, results_[i]);
            cell.addRaw("metrics", metrics);
            cells += cell.str();
        }
        JsonObjectBuilder top;
        top.add("bench", name_);
        top.addRaw("derived", derived_.str());
        top.addRaw("cells", "[" + cells + "]");
        writeResultsFile(name_ + ".json", top.str());

        std::string timing;
        for (size_t i = 0; i < cells_.size(); ++i) {
            if (i)
                timing += ',';
            JsonObjectBuilder cell;
            cell.add("benchmark", cells_[i].profile->name);
            cell.add("scheme", cells_[i].scheme);
            cell.add("wall_ms", wallMs_[i]);
            cell.add("epochs_per_sec", cellEpochsPerSec(i));
            timing += cell.str();
        }
        JsonObjectBuilder top_timing;
        top_timing.add("bench", name_);
        top_timing.add("jobs", static_cast<u64>(opts_.effectiveJobs()));
        top_timing.add("sim_threads", static_cast<u64>(simThreads_));
        top_timing.add("fast_timing", static_cast<u64>(fastTiming_ ? 1 : 0));
        top_timing.add("fast_timing_clamped",
                       static_cast<u64>(fastTimingClamped_ ? 1 : 0));
        top_timing.add("wall_ms_total", totalMs_);
        top_timing.add("elapsed_ms", elapsedMs_);
        top_timing.add("cells_per_sec",
                       elapsedMs_ > 0
                           ? static_cast<double>(cells_.size()) /
                                 (elapsedMs_ / 1000.0)
                           : 0.0);
        top_timing.addRaw("cells", "[" + timing + "]");
        writeResultsFile(name_ + ".timing.json", top_timing.str());
    }

  private:
    struct Cell
    {
        const WorkloadProfile *profile;
        SystemConfig cfg;
        std::string scheme;
    };

    static std::pair<std::string, std::string>
    key(const std::string &bench, const std::string &scheme)
    {
        return {bench, scheme};
    }

    /**
     * Propagate the fast-timing request into every cell's config.
     * Grid workers and fast-timing shards multiply, so when the grid
     * itself is parallel (effectiveJobs > 1) the request is clamped
     * off — loudly, because the user asked for something the run is
     * not doing.
     */
    void
    applySimThreads()
    {
        fastTiming_ = opts_.fastTiming;
        if (fastTiming_ && opts_.effectiveJobs() > 1 && cells_.size() > 1) {
            std::fprintf(
                stderr,
                "[runner] %s: --fast-timing ignored (clamped off): %u "
                "grid jobs already oversubscribe the host; use --serial "
                "or --jobs 1 for fast timing\n",
                name_.c_str(), opts_.effectiveJobs());
            fastTiming_ = false;
            fastTimingClamped_ = true;
        }
        simThreads_ = fastTiming_ ? opts_.simThreads : 1;
        for (Cell &cell : cells_) {
            cell.cfg.simThreads = simThreads_;
            cell.cfg.fastTiming = fastTiming_;
        }
    }

    /** Point a cell's trace sink into COP_TRACE_STATS, if set. */
    void
    attachTraceSink(Cell &cell)
    {
        const std::string dir = traceStatsDir();
        if (dir.empty())
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
             (name_ + "." + sanitize(cell.profile->name) + "." +
              sanitize(cell.scheme) + ".jsonl"))
                .string();
    }

    /** Simulated epochs per wall-second for cell @p i. */
    double
    cellEpochsPerSec(size_t i) const
    {
        if (wallMs_[i] <= 0)
            return 0.0;
        const double epochs =
            static_cast<double>(cells_[i].cfg.epochsPerCore) *
            cells_[i].cfg.cores;
        return epochs / (wallMs_[i] / 1000.0);
    }

    void
    reportTiming()
    {
        totalMs_ = 0;
        double slowest = 0;
        size_t slowest_idx = 0;
        for (size_t i = 0; i < wallMs_.size(); ++i) {
            totalMs_ += wallMs_[i];
            if (wallMs_[i] > slowest) {
                slowest = wallMs_[i];
                slowest_idx = i;
            }
        }
        if (cells_.empty())
            return;
        std::fprintf(stderr,
                     "[runner] %s: %zu cells, jobs=%u, "
                     "cell-time sum %.0f ms, elapsed %.0f ms "
                     "(%.2f cells/s), slowest cell %s/%s %.0f ms\n",
                     name_.c_str(), cells_.size(), opts_.effectiveJobs(),
                     totalMs_, elapsedMs_,
                     elapsedMs_ > 0 ? static_cast<double>(cells_.size()) /
                                          (elapsedMs_ / 1000.0)
                                    : 0.0,
                     cells_[slowest_idx].profile->name.c_str(),
                     cells_[slowest_idx].scheme.c_str(), slowest);
    }

    std::string name_;
    RunnerOptions opts_;
    std::vector<Cell> cells_;
    std::map<std::pair<std::string, std::string>, size_t> index_;
    std::vector<SystemResults> results_;
    std::vector<double> wallMs_;
    double totalMs_ = 0;
    double elapsedMs_ = 0;
    unsigned simThreads_ = 1;
    bool fastTiming_ = false;
    bool fastTimingClamped_ = false;
    JsonObjectBuilder derived_;
};

} // namespace cop::bench

#endif // COP_BENCH_RUN_UTIL_HPP
