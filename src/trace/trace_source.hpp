/**
 * @file
 * Streaming trace ingestion (ROADMAP item 3, in the style of the
 * prospero text/binary/gzip readers): a `TraceSource` yields the
 * epoch-structured L3 reference stream one epoch at a time, so a
 * multi-gigabyte trace replays with bounded resident memory — no
 * implementation may ever materialise more than one epoch plus a fixed
 * I/O buffer.
 *
 * Three formats, all interchangeable behind this interface:
 *   binary  the compact COPTRC format (v1 and v2; see trace/format.hpp),
 *           decoded from a fixed read window by the one COPTRC parser;
 *   text    one `<addr> R|W` access per line with `#epoch <instr>`
 *           markers — greppable, diffable, writable by any tool;
 *   gzip    the binary format behind a bounded-buffer zlib inflater
 *           (compressed traces stream straight from disk).
 *
 * `openTraceSource` sniffs the first byte so callers rarely need to
 * name the format, on pipes and FIFOs as well as on regular files. Corruption is always fatal and loud (COP_FATAL with
 * the offending structure named); a clean end-of-stream is the only
 * path that returns false from next().
 */

#ifndef COP_TRACE_TRACE_SOURCE_HPP
#define COP_TRACE_TRACE_SOURCE_HPP

#include <memory>
#include <string>

#include "workloads/trace_gen.hpp"

namespace cop {

/** How a trace file is encoded on disk. */
enum class TraceFormat : u8 {
    Auto,   ///< Sniff the first byte (gzip magic / COPTRC / text).
    Binary, ///< COPTRC v1/v2.
    Text,   ///< `#epoch` markers + `<addr> R|W` lines.
    Gzip,   ///< gzip-wrapped COPTRC.
};

const char *traceFormatName(TraceFormat f);

/** Parse a --trace-format value (auto|bin|text|gz); fatal on junk. */
TraceFormat parseTraceFormat(const std::string &s);

/**
 * One streaming epoch source over a trace. Implementations read
 * incrementally: next() parses exactly one epoch and never buffers the
 * remainder of the stream.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    TraceSource(const TraceSource &) = delete;
    TraceSource &operator=(const TraceSource &) = delete;

    /**
     * Parse the next epoch into @p epoch (buffers reused).
     * @return false at a clean end of stream; corruption/truncation is
     * fatal, never a silent short read.
     */
    virtual bool next(Epoch &epoch) = 0;

    /**
     * Epoch count the header declared, when the format carries one
     * (0 = unknown, read to EOF — text traces and pipe-written binary
     * traces).
     */
    virtual u64 declaredEpochs() const { return 0; }

    /** The format this source parses (for reports and errors). */
    virtual const char *formatName() const = 0;

    u64 epochsRead() const { return epochs_; }
    u64 accessesRead() const { return accesses_; }

  protected:
    TraceSource() = default;

    /** Epochs/accesses successfully parsed (kept by implementations). */
    u64 epochs_ = 0;
    u64 accesses_ = 0;
};

/**
 * Open @p path as a streaming trace source. Format Auto peeks at the
 * first byte without consuming it, so it needs no rewind and works on
 * FIFOs and /dev/stdin. Fatal on unreadable files, unknown formats, or
 * — for Gzip — a build without zlib.
 */
std::unique_ptr<TraceSource> openTraceSource(
    const std::string &path, TraceFormat format = TraceFormat::Auto);

} // namespace cop

#endif // COP_TRACE_TRACE_SOURCE_HPP
