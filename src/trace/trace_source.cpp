#include "trace/trace_source.hpp"

#include <fstream>

#include "trace/binary_source.hpp"
#include "trace/gzip_source.hpp"
#include "trace/text_source.hpp"

namespace cop {

const char *
traceFormatName(TraceFormat f)
{
    switch (f) {
    case TraceFormat::Auto: return "auto";
    case TraceFormat::Binary: return "bin";
    case TraceFormat::Text: return "text";
    case TraceFormat::Gzip: return "gz";
    }
    COP_PANIC("bad TraceFormat");
}

TraceFormat
parseTraceFormat(const std::string &s)
{
    if (s == "auto")
        return TraceFormat::Auto;
    if (s == "bin" || s == "binary")
        return TraceFormat::Binary;
    if (s == "text" || s == "txt")
        return TraceFormat::Text;
    if (s == "gz" || s == "gzip")
        return TraceFormat::Gzip;
    COP_FATAL("unknown trace format '" + s +
              "' (expected auto|bin|text|gz)");
}

namespace {

std::unique_ptr<std::ifstream>
openFile(const std::string &path)
{
    auto in = std::make_unique<std::ifstream>(path, std::ios::binary);
    if (!*in)
        COP_FATAL("cannot open trace " + path);
    return in;
}

/**
 * Pick the format from the first byte, peeked without consuming it so
 * that pipes and FIFOs need no rewind: every COPTRC magic starts with
 * 'C', every gzip member with 0x1f, and a text trace with '#', a digit
 * or whitespace. The chosen reader then checks its own framing, so a
 * genuinely alien file still dies loudly in one of them (bad magic,
 * inflate error, or a text line number) rather than here with a guess.
 */
TraceFormat
sniff(std::istream &in)
{
    switch (in.peek()) {
    case 0x1f: return TraceFormat::Gzip;
    case 'C': return TraceFormat::Binary;
    default: return TraceFormat::Text;
    }
}

} // namespace

std::unique_ptr<TraceSource>
openTraceSource(const std::string &path, TraceFormat format)
{
    auto in = openFile(path);
    if (format == TraceFormat::Auto)
        format = sniff(*in);

    switch (format) {
    case TraceFormat::Binary:
        return std::make_unique<BinaryTraceSource>(std::move(in));
    case TraceFormat::Text:
        return std::make_unique<TextTraceSource>(std::move(in));
    case TraceFormat::Gzip:
        return std::make_unique<GzipTraceSource>(std::move(in));
    case TraceFormat::Auto:
        break;
    }
    COP_PANIC("bad TraceFormat");
}

} // namespace cop
