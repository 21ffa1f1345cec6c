/**
 * @file
 * The experiment runner: a fixed-size thread pool for grids of
 * independent simulation cells. Every `System` is self-contained (its
 * own TraceGenerator, DramSystem and controller), so a
 * (benchmark × scheme) grid parallelises with no shared mutable state;
 * the runner executes cells concurrently but keys every result by its
 * submission index, so the collected results — and anything formatted
 * from them — are bit-identical to a serial run.
 *
 * Concurrency is controlled by the COP_BENCH_JOBS environment variable
 * (default: hardware concurrency) and the `--serial` / `--jobs N`
 * command-line escape hatches; see parseRunnerOptions().
 */

#ifndef COP_SIM_RUNNER_HPP
#define COP_SIM_RUNNER_HPP

#include <functional>
#include <vector>

#include "sim/system.hpp"

namespace cop {

/** How a grid of independent cells should be executed. */
struct RunnerOptions
{
    /** Worker threads; 0 means hardware concurrency. */
    unsigned jobs = 0;
    /** Run cells in submission order on the calling thread. */
    bool serial = false;

    /** The worker count actually used (resolves 0 and serial). */
    unsigned effectiveJobs() const;
};

/**
 * Runner options from the environment and command line: COP_BENCH_JOBS
 * (positive integer) sets the worker count; `--serial` forces
 * single-threaded in-order execution; `--jobs N` overrides the
 * environment. Unrecognised arguments are ignored (the figures driver
 * keeps its own flags, e.g. `--config`).
 */
RunnerOptions parseRunnerOptions(int argc, char **argv);

/**
 * Whether two grid cells are the same simulation and may share one
 * run: equal profiles (the whole WorkloadProfile, not just its name)
 * and equal SystemParams. A cell with a stats-trace sink or an epoch
 * source never matches another, so every such cell still writes its
 * own trace or reads its own stream.
 */
bool sameCell(const WorkloadProfile &a, const SystemConfig &a_cfg,
              const WorkloadProfile &b, const SystemConfig &b_cfg);

/**
 * Execute @p count independent jobs under @p opts. `job(i)` is called
 * exactly once for every index in [0, count); indices are claimed in
 * order but may run concurrently. Per-cell wall times (milliseconds)
 * are recorded into @p wall_ms if non-null, keyed by index.
 *
 * A job that throws does not take the process down anonymously: the
 * exception is captured per cell, every remaining cell still runs, and
 * after all workers join the run aborts via COP_FATAL naming the first
 * failing cell (by index) and its message. A COP_PANIC / COP_FATAL
 * inside a worker still terminates the process immediately, as it
 * would serially.
 */
void runIndexed(size_t count, const std::function<void(size_t)> &job,
                const RunnerOptions &opts,
                std::vector<double> *wall_ms = nullptr);

/**
 * Run @p count cells producing values of type @p Result, collected in
 * submission order regardless of completion order.
 */
template <typename Result>
std::vector<Result>
runCollected(size_t count, const std::function<Result(size_t)> &job,
             const RunnerOptions &opts,
             std::vector<double> *wall_ms = nullptr)
{
    std::vector<Result> results(count);
    runIndexed(
        count, [&](size_t i) { results[i] = job(i); }, opts, wall_ms);
    return results;
}

/**
 * Append @p results as a deterministic JSON object to @p out. Contains
 * only simulation-derived metrics (no timing), so serial and parallel
 * runs of the same grid serialise byte-identically.
 */
void appendResultsJson(std::string &out, const SystemResults &results);

/** JSON string escaping for labels. */
std::string jsonEscape(const std::string &s);

} // namespace cop

#endif // COP_SIM_RUNNER_HPP
