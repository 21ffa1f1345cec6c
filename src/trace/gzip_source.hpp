/**
 * @file
 * gzip-wrapped binary traces: a bounded-buffer zlib inflater exposed
 * as a std::streambuf, so GzipTraceSource is just BinaryTraceSource
 * reading through it — one code path parses both .coptrc and
 * .coptrc.gz, and a multi-gigabyte compressed trace streams with two
 * fixed 256 KiB buffers plus the binary reader's window. The matching deflater backs `trace_tool
 * convert --format gz` and gzip capture.
 *
 * Builds without zlib keep the symbols but every constructor dies with
 * COP_FATAL("built without zlib…") — callers never silently read
 * garbage from a .gz file.
 */

#ifndef COP_TRACE_GZIP_SOURCE_HPP
#define COP_TRACE_GZIP_SOURCE_HPP

#include <iosfwd>
#include <memory>
#include <streambuf>
#include <vector>

#include "trace/binary_source.hpp"
#include "trace/trace_source.hpp"

namespace cop {

/** Whether this build can inflate/deflate gzip (CMake found zlib). */
bool gzipSupported();

/**
 * Read-side streambuf: pulls compressed bytes from an underlying
 * istream in fixed-size chunks and inflates into a fixed-size get
 * area. Corrupt streams and trailing garbage are fatal.
 */
class GzipInflateBuf : public std::streambuf
{
  public:
    explicit GzipInflateBuf(std::unique_ptr<std::istream> in);
    ~GzipInflateBuf() override;

    GzipInflateBuf(const GzipInflateBuf &) = delete;
    GzipInflateBuf &operator=(const GzipInflateBuf &) = delete;

  protected:
    int_type underflow() override;

  private:
    struct Impl; // hides z_stream so zlib.h stays out of this header
    std::unique_ptr<Impl> impl_;
};

/**
 * Write-side streambuf: deflates into gzip framing (deflateInit2 with
 * windowBits 15+16) and flushes compressed chunks to the underlying
 * ostream. The destructor finishes the gzip member; call sync() first
 * if you need to observe write failures as COP_FATAL rather than a
 * destructor abort.
 */
class GzipDeflateBuf : public std::streambuf
{
  public:
    explicit GzipDeflateBuf(std::unique_ptr<std::ostream> out);
    ~GzipDeflateBuf() override;

    GzipDeflateBuf(const GzipDeflateBuf &) = delete;
    GzipDeflateBuf &operator=(const GzipDeflateBuf &) = delete;

    /** Finish the gzip stream and flush; fatal on failure. Idempotent. */
    void finish();

  protected:
    int_type overflow(int_type ch) override;
    int sync() override;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** An istream whose buffer inflates @p in on the fly. */
std::unique_ptr<std::istream>
makeGzipIstream(std::unique_ptr<std::istream> in);

/**
 * An ostream whose buffer deflates into @p out. The stream owns the
 * deflate buffer; destroying it finishes the gzip member.
 */
std::unique_ptr<std::ostream>
makeGzipOstream(std::unique_ptr<std::ostream> out);

/**
 * gzip-wrapped binary trace: BinaryTraceSource over an inflating
 * stream. The inflater is unseekable, so this reader always runs in
 * capped-reserve mode and truncation is caught at the short read.
 */
class GzipTraceSource : public TraceSource
{
  public:
    explicit GzipTraceSource(std::unique_ptr<std::istream> compressed);

    bool next(Epoch &epoch) override;

    u64 declaredEpochs() const override { return inner_->declaredEpochs(); }
    const char *formatName() const override { return "gzip"; }
    unsigned formatVersion() const { return inner_->formatVersion(); }

  private:
    std::unique_ptr<BinaryTraceSource> inner_;
};

} // namespace cop

#endif // COP_TRACE_GZIP_SOURCE_HPP
