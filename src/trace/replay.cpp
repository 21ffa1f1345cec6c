#include "trace/replay.hpp"

namespace cop {

TraceReplayGenerator::TraceReplayGenerator(
    const WorkloadProfile &profile, unsigned core_id,
    std::unique_ptr<TraceSource> source)
    : src_(std::move(source)),
      pool_(profile, contentPoolSalt(profile, core_id))
{
    COP_ASSERT(src_ != nullptr);
}

const Epoch &
TraceReplayGenerator::next()
{
    if (!src_->next(epoch_)) {
        COP_FATAL("trace exhausted after " +
                  std::to_string(src_->epochsRead()) +
                  " epochs but the simulation asked for more (size "
                  "epochsPerCore to the trace, or re-capture longer)");
    }
    return epoch_;
}

bool
TraceReplayGenerator::replayCounters(ReplaySourceCounters &out) const
{
    out.epochs = src_->epochsRead();
    out.accesses = src_->accessesRead();
    return true;
}

EpochSourceFactory
makeTraceReplayFactory(const WorkloadProfile &profile,
                       std::vector<std::string> paths,
                       TraceFormat format)
{
    COP_ASSERT(!paths.empty());
    return [&profile, paths = std::move(paths),
            format](unsigned core) -> std::unique_ptr<EpochSource> {
        if (core >= paths.size()) {
            COP_FATAL("replay has " + std::to_string(paths.size()) +
                      " trace file(s) but the system asked for core " +
                      std::to_string(core) +
                      " (pass one --trace-in per core)");
        }
        return std::make_unique<TraceReplayGenerator>(
            profile, core, openTraceSource(paths[core], format));
    };
}

u64
replayEpochCount(const std::string &path, TraceFormat format)
{
    auto src = openTraceSource(path, format);
    if (src->declaredEpochs() != 0)
        return src->declaredEpochs();
    // No declared count (text traces, pipe-written binaries): scan.
    // One epoch buffered at a time — bounded memory even for huge
    // traces, at the cost of a second pass over the file.
    Epoch epoch;
    while (src->next(epoch)) {
    }
    return src->epochsRead();
}

} // namespace cop
