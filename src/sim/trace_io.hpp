/**
 * @file
 * Trace capture and replay. The paper's methodology is trace-driven
 * (Pin-captured L3 reference streams); this module gives the library
 * the same workflow: epoch streams can be serialised to a compact
 * binary format, inspected, and replayed, so downstream users can feed
 * their own captured traces instead of the synthetic generators.
 *
 * The on-disk format (v2, little-endian regardless of host):
 *   header : magic "COPTRC2\0" (8 bytes), u64 epoch count (0 if
 *            unknown at write time -> read until EOF)
 *   epoch  : u64 instructions, u32 access count,
 *            accesses as u64 words: (block address) | 1 if write
 *            (block addresses are 64-byte aligned, so bit 0 is free).
 * Readers also accept the legacy v1 header ("COPTRC1\0", u32 count).
 *
 * On seekable sinks the writer back-patches the header count when
 * finished; on unseekable sinks (pipes, gzip) pass the count to the
 * constructor when known. finish() is fatal if the sink failed — a
 * disk-full capture can no longer masquerade as a complete trace.
 *
 * Reading lives in src/trace/ (TraceSource and friends; the binary
 * reader is BinaryTraceSource).
 */

#ifndef COP_SIM_TRACE_IO_HPP
#define COP_SIM_TRACE_IO_HPP

#include <ios>
#include <iosfwd>
#include <string>

#include "trace/trace_source.hpp"
#include "workloads/trace_gen.hpp"

namespace cop {

/** Serialises epochs to a binary stream (always the v2 format). */
class TraceWriter
{
  public:
    /**
     * Writes the header immediately. Pass @p declared when the epoch
     * count is known up front and @p out is unseekable (a pipe or a
     * gzip deflater) — seekable sinks are back-patched by finish()
     * regardless.
     */
    explicit TraceWriter(std::ostream &out, u64 declared = 0);

    /** Calls finish(). */
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one epoch. */
    void write(const Epoch &epoch);

    /**
     * Back-patch the header's epoch count (seekable streams only) and
     * verify the sink took every byte; fatal on a failed stream.
     * Idempotent; no further write() calls are allowed after it.
     */
    void finish();

    u64 epochsWritten() const { return count_; }

  private:
    std::ostream &out_;
    std::streampos countPos_{-1};
    u64 count_ = 0;
    u64 declared_ = 0;
    bool finished_ = false;
};

/** Summary statistics of a trace (the trace_tool report). */
struct TraceSummary
{
    u64 epochs = 0;
    u64 instructions = 0;
    u64 accesses = 0;
    u64 writes = 0;
    u64 distinctBlocks = 0;
    u64 sequentialPairs = 0; ///< addr == prev + 64 within one epoch.

    double
    writeFraction() const
    {
        return accesses ? static_cast<double>(writes) / accesses : 0;
    }

    double
    accessesPerKiloInstruction() const
    {
        return instructions
                   ? 1000.0 * static_cast<double>(accesses) / instructions
                   : 0;
    }
};

/** Scan any trace source and summarise it. */
TraceSummary summarizeTrace(TraceSource &src);

/** Capture @p epochs epochs of a synthetic workload to @p out. */
u64 captureTrace(const WorkloadProfile &profile, unsigned core_id,
                 u64 epochs, std::ostream &out);

} // namespace cop

#endif // COP_SIM_TRACE_IO_HPP
