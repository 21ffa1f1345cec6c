/**
 * @file
 * The binary COPTRC reader: one parser for every byte of a binary
 * trace, whether it comes from a regular file, a pipe or the gzip
 * inflater. It refills a fixed 256 KiB window with bulk reads and
 * decodes records in place, accepts the v1 (u32 header count) and v2
 * (u64) formats, and validates every declared length against what the
 * stream can actually deliver before allocating — a corrupt epoch
 * header claiming 4 billion accesses dies with a clean "declares N
 * accesses but only M bytes remain", not a 32 GB bad_alloc.
 */

#ifndef COP_TRACE_BINARY_SOURCE_HPP
#define COP_TRACE_BINARY_SOURCE_HPP

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <vector>

#include "trace/trace_source.hpp"

namespace cop {

/**
 * Streaming binary reader over any istream. When the stream is
 * seekable its total size is measured once up front and every epoch's
 * declared access count is validated against the bytes that remain;
 * on unseekable streams the reserve is capped (push_back grows past
 * the cap) and truncation still fails loudly at the short read.
 *
 * Records are decoded straight out of a fixed-size window that is
 * refilled with one bulk read whenever the next record would cross its
 * end. The window never grows: an epoch longer than the window is
 * consumed in window-sized pieces, so resident memory is the window
 * plus the epoch being built, whatever a header declares.
 */
class BinaryTraceSource : public TraceSource
{
  public:
    /** Size of the read window, the only I/O buffer of the reader. */
    static constexpr size_t kWindowBytes = 256 * 1024;

    /** Parse the header eagerly; fatal on bad magic / short header. */
    explicit BinaryTraceSource(std::istream &in);

    /** Owning variant (the factory's path-opened streams). */
    explicit BinaryTraceSource(std::unique_ptr<std::istream> in);

    bool next(Epoch &epoch) override;

    u64 declaredEpochs() const override { return declared_; }
    const char *formatName() const override { return "binary"; }

    /** On-disk format version parsed from the magic (1 or 2). */
    unsigned formatVersion() const { return version_; }

  private:
    void readHeader();

    /**
     * Make at least @p bytes unparsed bytes available at pos_, sliding
     * the unparsed tail to the front of the window and topping it up
     * with one bulk read. False when the stream ends first.
     */
    bool fill(size_t bytes);

    std::unique_ptr<std::istream> owned_;
    std::istream &in_;
    /** [pos_, end_) holds bytes read from in_ but not yet parsed. */
    std::vector<unsigned char> window_;
    size_t pos_ = 0;
    size_t end_ = 0;
    u64 declared_ = 0;
    unsigned version_ = 2;
    /** Total stream bytes when seekable, else 0 (unknown). */
    u64 streamBytes_ = 0;
    bool sizeKnown_ = false;
    /** Bytes consumed so far (header + parsed records). */
    u64 consumed_ = 0;
};

} // namespace cop

#endif // COP_TRACE_BINARY_SOURCE_HPP
