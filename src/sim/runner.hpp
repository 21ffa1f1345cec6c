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
    /**
     * Per-cell SystemConfig::simThreads request (COP_SIM_THREADS /
     * --sim-threads; 0 means hardware concurrency): the fast-timing
     * shard budget, so any value but 1 needs fastTiming.
     */
    unsigned simThreads = 1;
    /**
     * Per-cell SystemConfig::fastTiming request (COP_FAST_TIMING /
     * --fast-timing). Its shards multiply with grid-level parallelism,
     * so consumers running cells under more than one grid worker must
     * clamp it off — the GridRunner does, loudly.
     */
    bool fastTiming = false;

    /** The worker count actually used (resolves 0 and serial). */
    unsigned effectiveJobs() const;
};

/**
 * Runner options from the environment and command line: COP_BENCH_JOBS
 * (positive integer) sets the worker count; `--serial` forces
 * single-threaded in-order execution; `--jobs N` overrides the
 * environment; COP_FAST_TIMING / `--fast-timing` request the
 * relaxed-consistency fast-timing mode (SystemConfig::fastTiming) for
 * every cell, and COP_SIM_THREADS / `--sim-threads N` set its per-cell
 * shard budget (0 = hardware concurrency). A thread budget other than
 * 1 without fast timing is fatal.
 * Unrecognised arguments are ignored (benches keep their own flags,
 * e.g. fig11's `--config`).
 */
RunnerOptions parseRunnerOptions(int argc, char **argv);

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
