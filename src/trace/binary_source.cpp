#include "trace/binary_source.hpp"

#include <algorithm>
#include <cstring>
#include <istream>

#include "trace/format.hpp"

namespace cop {

namespace {

/**
 * Reserve cap when the stream size is unknown (pipes, gzip): big
 * enough that honest epochs never reallocate, small enough that a
 * corrupt 0xFFFFFFFF count cannot demand a ~32 GB allocation before
 * the truncated-access read catches it.
 */
constexpr u32 kUnboundedReserveCap = 4096;

[[noreturn]] void
truncatedAccesses(u64 declared, u64 deliverable)
{
    COP_FATAL("trace epoch declares " + std::to_string(declared) +
              " accesses but only " + std::to_string(deliverable) +
              " more fit in the remaining stream bytes");
}

} // namespace

BinaryTraceSource::BinaryTraceSource(std::istream &in) : in_(in)
{
    readHeader();
}

BinaryTraceSource::BinaryTraceSource(std::unique_ptr<std::istream> in)
    : owned_(std::move(in)), in_(*owned_)
{
    readHeader();
}

bool
BinaryTraceSource::fill(size_t bytes)
{
    const size_t unparsed = end_ - pos_;
    if (unparsed >= bytes)
        return true;
    std::memmove(window_.data(), window_.data() + pos_, unparsed);
    pos_ = 0;
    end_ = unparsed;
    in_.read(reinterpret_cast<char *>(window_.data() + end_),
             static_cast<std::streamsize>(window_.size() - end_));
    end_ += static_cast<size_t>(in_.gcount());
    return end_ >= bytes;
}

void
BinaryTraceSource::readHeader()
{
    // Measure the stream once so per-epoch access counts can be
    // validated before any allocation. tellg/seekg fail harmlessly on
    // pipes — the reader then runs in capped-reserve mode.
    const std::streampos here = in_.tellg();
    if (here != std::streampos(-1)) {
        in_.seekg(0, std::ios::end);
        const std::streampos end = in_.tellg();
        if (end != std::streampos(-1) && end >= here) {
            streamBytes_ =
                static_cast<u64>(end) - static_cast<u64>(here);
            sizeKnown_ = true;
        }
        in_.seekg(here);
    }
    in_.clear(); // failed seeks on pipes must not poison the stream

    window_.resize(kWindowBytes);
    if (!fill(trace::kMagicBytes))
        COP_FATAL("not a COP trace stream (short magic)");
    size_t count_bytes = 0;
    if (std::memcmp(window_.data(), trace::kMagicV2,
                    trace::kMagicBytes) == 0) {
        version_ = 2;
        count_bytes = sizeof(u64);
    } else if (std::memcmp(window_.data(), trace::kMagicV1,
                           trace::kMagicBytes) == 0) {
        version_ = 1;
        count_bytes = sizeof(u32);
    } else {
        COP_FATAL("not a COP trace stream (bad magic)");
    }
    consumed_ = trace::kMagicBytes + count_bytes;
    if (!fill(consumed_))
        COP_FATAL("truncated trace header");
    const unsigned char *count = window_.data() + trace::kMagicBytes;
    declared_ = version_ == 2 ? trace::loadLe<u64>(count)
                              : trace::loadLe<u32>(count);
    pos_ = consumed_;
}

bool
BinaryTraceSource::next(Epoch &epoch)
{
    if (!fill(trace::kEpochHeaderBytes)) {
        // End of stream at an epoch boundary: only legitimate when the
        // header declared no count or exactly this many epochs. A cut
        // inside the instruction count reads as the same short stream.
        const size_t partial = end_ - pos_;
        if (partial < sizeof(u64) && declared_ != 0 &&
            epochs_ != declared_) {
            COP_FATAL("trace declares " + std::to_string(declared_) +
                      " epochs but the stream ended after " +
                      std::to_string(epochs_));
        }
        if (partial != 0)
            COP_FATAL("truncated trace epoch header");
        return false;
    }
    const unsigned char *header = window_.data() + pos_;
    epoch.instructions = trace::loadLe<u64>(header);
    const u32 count = trace::loadLe<u32>(header + sizeof(u64));
    pos_ += trace::kEpochHeaderBytes;
    consumed_ += trace::kEpochHeaderBytes;

    epoch.accesses.clear();
    if (sizeKnown_) {
        // The whole point of the up-front measurement: an untrusted
        // count is checked against bytes that actually exist before
        // the reserve, so corruption cannot drive the allocator.
        const u64 remaining = streamBytes_ - consumed_;
        if (static_cast<u64>(count) * trace::kAccessBytes > remaining)
            truncatedAccesses(count, remaining / trace::kAccessBytes);
        epoch.accesses.reserve(count);
    } else {
        epoch.accesses.reserve(std::min(count, kUnboundedReserveCap));
    }
    // Decode the records the window holds, refill, repeat: a record
    // cut by the window's end is slid to the front by the refill.
    for (u32 left = count; left > 0;) {
        if (!fill(trace::kAccessBytes))
            COP_FATAL("truncated trace access record");
        const u32 in_window = static_cast<u32>(
            std::min<size_t>(left, (end_ - pos_) / trace::kAccessBytes));
        const unsigned char *record = window_.data() + pos_;
        for (u32 i = 0; i < in_window; ++i) {
            const u64 word = trace::loadLe<u64>(record);
            record += trace::kAccessBytes;
            epoch.accesses.push_back(
                {word & ~static_cast<u64>(1), (word & 1) != 0});
        }
        pos_ += static_cast<size_t>(in_window) * trace::kAccessBytes;
        left -= in_window;
    }
    consumed_ += static_cast<u64>(count) * trace::kAccessBytes;
    ++epochs_;
    accesses_ += count;
    return true;
}

} // namespace cop
