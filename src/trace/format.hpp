/**
 * @file
 * The on-disk COP trace format, shared by the writer (sim/trace_io)
 * and the one binary reader (trace/binary_source).
 *
 * v2 (current, magic "COPTRC2\0"):
 *   header : magic (8 bytes), u64 epoch count (0 if unknown at write
 *            time -> read until EOF)
 *   epoch  : u64 instructions, u32 access count,
 *            accesses as u64 words: (block address) | 1 if write
 *            (block addresses are 64-byte aligned, so bit 0 is free).
 *
 * v1 (magic "COPTRC1\0") differs only in the header count width (u32);
 * readers keep accepting it, writers emit v2 only.
 *
 * All scalars are pinned to little-endian byte order on disk — the
 * helpers below serialise byte-by-byte instead of memcpy'ing host
 * representations, so traces captured on one machine replay bit-exactly
 * on any other (the pre-fix code wrote host endianness, which made a
 * big-endian capture unreadable everywhere else).
 */

#ifndef COP_TRACE_FORMAT_HPP
#define COP_TRACE_FORMAT_HPP

#include <cstddef>
#include <istream>
#include <ostream>

#include "common/types.hpp"

namespace cop::trace {

inline constexpr char kMagicV1[8] = {'C', 'O', 'P', 'T', 'R', 'C',
                                     '1', '\0'};
inline constexpr char kMagicV2[8] = {'C', 'O', 'P', 'T', 'R', 'C',
                                     '2', '\0'};
inline constexpr size_t kMagicBytes = 8;

/** Per-epoch record framing: u64 instructions + u32 access count. */
inline constexpr size_t kEpochHeaderBytes = 12;
inline constexpr size_t kAccessBytes = 8;

/** Assemble a little-endian scalar from @p sizeof(T) raw bytes. */
template <typename T>
inline T
loadLe(const unsigned char *bytes)
{
    T value = 0;
    for (size_t i = 0; i < sizeof(T); ++i)
        value |= static_cast<T>(bytes[i]) << (8 * i);
    return value;
}

/** Serialise @p value into @p bytes in little-endian order. */
template <typename T>
inline void
storeLe(unsigned char *bytes, T value)
{
    for (size_t i = 0; i < sizeof(T); ++i)
        bytes[i] = static_cast<unsigned char>(value >> (8 * i));
}

/** Write one little-endian scalar to a stream. */
template <typename T>
inline void
writeScalarLe(std::ostream &out, T value)
{
    unsigned char bytes[sizeof(T)];
    storeLe(bytes, value);
    out.write(reinterpret_cast<const char *>(bytes), sizeof(bytes));
}

/** Read one little-endian scalar; false on short read. */
template <typename T>
inline bool
readScalarLe(std::istream &in, T &value)
{
    unsigned char bytes[sizeof(T)];
    in.read(reinterpret_cast<char *>(bytes), sizeof(bytes));
    if (in.gcount() != static_cast<std::streamsize>(sizeof(bytes)))
        return false;
    value = loadLe<T>(bytes);
    return true;
}

} // namespace cop::trace

#endif // COP_TRACE_FORMAT_HPP
