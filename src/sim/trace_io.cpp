#include "sim/trace_io.hpp"

#include <ostream>

#include "common/flat_map.hpp"
#include "trace/format.hpp"

namespace cop {

TraceWriter::TraceWriter(std::ostream &out, u64 declared)
    : out_(out), declared_(declared)
{
    out_.write(trace::kMagicV2, trace::kMagicBytes);
    countPos_ = out_.tellp(); // -1 on unseekable streams (pipes)
    trace::writeScalarLe<u64>(out_, declared);
}

TraceWriter::~TraceWriter()
{
    finish();
}

void
TraceWriter::write(const Epoch &epoch)
{
    COP_ASSERT(!finished_);
    trace::writeScalarLe<u64>(out_, epoch.instructions);
    trace::writeScalarLe<u32>(out_, static_cast<u32>(epoch.accesses.size()));
    for (const TraceAccess &access : epoch.accesses) {
        COP_ASSERT(access.addr % kBlockBytes == 0);
        trace::writeScalarLe<u64>(out_,
                                  access.addr | (access.isWrite ? 1u : 0u));
    }
    ++count_;
}

void
TraceWriter::finish()
{
    if (finished_)
        return;
    finished_ = true;
    // Back-patch the header's epoch count so readers can tell a
    // complete file from one truncated at an epoch boundary. On
    // unseekable sinks the count stays whatever the constructor was
    // given (0 = "read until EOF").
    if (countPos_ != std::streampos(-1)) {
        const std::streampos end = out_.tellp();
        out_.seekp(countPos_);
        trace::writeScalarLe<u64>(out_, count_);
        out_.seekp(end);
    } else if (declared_ != 0 && declared_ != count_) {
        COP_FATAL("trace writer declared " + std::to_string(declared_) +
                  " epochs up front but wrote " + std::to_string(count_));
    }
    out_.flush();
    // A full disk or closed pipe must not produce a file that parses
    // as a complete trace.
    if (!out_)
        COP_FATAL("trace write failed (disk full or sink closed?)");
}

TraceSummary
summarizeTrace(TraceSource &src)
{
    TraceSummary summary;
    FlatSet blocks;
    Epoch epoch;
    while (src.next(epoch)) {
        ++summary.epochs;
        summary.instructions += epoch.instructions;
        // Sequentiality is a per-epoch property: an epoch boundary is
        // a scheduling discontinuity, so `prev` must not leak across
        // it and mint a phantom sequential pair.
        Addr prev = ~0ULL;
        for (const TraceAccess &access : epoch.accesses) {
            ++summary.accesses;
            summary.writes += access.isWrite;
            blocks.insert(access.addr);
            if (prev != ~0ULL && access.addr == prev + kBlockBytes)
                ++summary.sequentialPairs;
            prev = access.addr;
        }
    }
    summary.distinctBlocks = blocks.size();
    return summary;
}

u64
captureTrace(const WorkloadProfile &profile, unsigned core_id,
             u64 epochs, std::ostream &out)
{
    TraceGenerator gen(profile, core_id);
    // Preset the declared count: unseekable sinks (gzip, pipes) then
    // still produce traces whose completeness readers can verify.
    TraceWriter writer(out, epochs);
    for (u64 i = 0; i < epochs; ++i)
        writer.write(gen.next());
    writer.finish();
    return writer.epochsWritten();
}

} // namespace cop
