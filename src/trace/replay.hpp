/**
 * @file
 * Trace-driven epoch source: TraceReplayGenerator feeds a captured
 * trace into the System where the synthetic TraceGenerator would run,
 * with the same functional-memory pool wiring (contentPoolSalt keeps
 * the pool byte-identical to the capture run's pool for the same core
 * and profile). DESIGN.md §9 states the determinism contract: a replay
 * of `captureTrace(profile, core, N)` under the profile that captured
 * it produces byte-identical results JSON to the synthetic run.
 */

#ifndef COP_TRACE_REPLAY_HPP
#define COP_TRACE_REPLAY_HPP

#include <string>
#include <vector>

#include "trace/trace_source.hpp"

namespace cop {

/**
 * One core's epoch stream read from a trace. Exhaustion is fatal — the
 * caller sizes epochsPerCore to the trace (see replayEpochCount).
 */
class TraceReplayGenerator : public EpochSource
{
  public:
    TraceReplayGenerator(const WorkloadProfile &profile,
                         unsigned core_id,
                         std::unique_ptr<TraceSource> source,
                         unsigned content_cache_entries =
                             kDefaultContentCacheEntries);

    const Epoch &next() override;

    BlockContentPool &pool() override { return pool_; }
    const BlockContentPool &pool() const override { return pool_; }

    bool replayCounters(ReplaySourceCounters &out) const override;

    const TraceSource &source() const { return *src_; }

  private:
    std::unique_ptr<TraceSource> src_;
    BlockContentPool pool_;
    /** Reused next() buffer, mirroring TraceGenerator. */
    Epoch epoch_;
};

/**
 * EpochSourceFactory over one trace file per core (core c replays
 * paths[c]). Every factory call opens a fresh source that streams the
 * file independently. @p profile is captured by reference — the caller
 * keeps it alive for the System's lifetime, as usual.
 */
EpochSourceFactory
makeTraceReplayFactory(const WorkloadProfile &profile,
                       std::vector<std::string> paths,
                       TraceFormat format = TraceFormat::Auto);

/**
 * Epochs available in @p path: the header's declared count when it
 * carries one, else a streaming scan (bounded memory, full read).
 */
u64 replayEpochCount(const std::string &path,
                     TraceFormat format = TraceFormat::Auto);

} // namespace cop

#endif // COP_TRACE_REPLAY_HPP
