/**
 * @file
 * Bit-level utilities: single-bit access over byte buffers (LSB-first
 * addressing) and sequential bit-stream reader/writer used by every
 * compression codec and ECC code in the repository.
 *
 * Bit addressing convention: bit index i lives in byte i / 8, at position
 * i % 8 counted from the least-significant bit. All multi-bit fields are
 * written least-significant-bit first. The convention is normative for the
 * on-"DRAM" formats described in DESIGN.md section 4.
 *
 * The multi-bit kernels (getBits/setBits/copyBits) are word-wise: on a
 * little-endian target the LSB-first bit order coincides with the memory
 * order of a u64, so a field is one unaligned load, a shift and a mask
 * instead of a bit-per-iteration loop. The original bit-serial versions
 * are retained in namespace bitref as the behavioural reference — the
 * randomized equivalence suite (tests/bits_kernel_test.cpp) pits the two
 * against each other, and big-endian builds fall back to them.
 */

#ifndef COP_COMMON_BITS_HPP
#define COP_COMMON_BITS_HPP

#include <bit>
#include <cstring>
#include <span>

#include "common/types.hpp"

namespace cop {

/** Read bit @p idx (LSB-first) from a byte buffer. */
inline bool
getBit(std::span<const u8> buf, unsigned idx)
{
    return (buf[idx / 8] >> (idx % 8)) & 1u;
}

/** Set bit @p idx (LSB-first) in a byte buffer to @p value. */
inline void
setBit(std::span<u8> buf, unsigned idx, bool value)
{
    const u8 mask = static_cast<u8>(1u << (idx % 8));
    if (value)
        buf[idx / 8] |= mask;
    else
        buf[idx / 8] &= static_cast<u8>(~mask);
}

/** Flip bit @p idx (LSB-first) in a byte buffer. */
inline void
flipBit(std::span<u8> buf, unsigned idx)
{
    buf[idx / 8] ^= static_cast<u8>(1u << (idx % 8));
}

/**
 * Reference bit-serial implementations. Normative for the bit addressing
 * convention; the word-wise kernels below must match them bit for bit
 * (including the 64-bit chunking order of copyBits, which is observable
 * when source and destination ranges overlap).
 */
namespace bitref {

inline u64
getBits(std::span<const u8> buf, unsigned pos, unsigned count)
{
    u64 value = 0;
    for (unsigned i = 0; i < count; ++i)
        value |= static_cast<u64>(getBit(buf, pos + i)) << i;
    return value;
}

inline void
setBits(std::span<u8> buf, unsigned pos, unsigned count, u64 value)
{
    for (unsigned i = 0; i < count; ++i)
        setBit(buf, pos + i, (value >> i) & 1u);
}

inline void
copyBits(std::span<const u8> src, unsigned src_pos, std::span<u8> dst,
         unsigned dst_pos, unsigned count)
{
    while (count > 0) {
        const unsigned chunk = count < 64 ? count : 64;
        setBits(dst, dst_pos, chunk, getBits(src, src_pos, chunk));
        src_pos += chunk;
        dst_pos += chunk;
        count -= chunk;
    }
}

} // namespace bitref

/** Extract @p count (<= 64) bits starting at bit @p pos, LSB-first. */
inline u64
getBits(std::span<const u8> buf, unsigned pos, unsigned count)
{
    if constexpr (std::endian::native != std::endian::little)
        return bitref::getBits(buf, pos, count);
    if (count == 0)
        return 0;
    const unsigned byte = pos / 8;
    const unsigned off = pos % 8;
    // Bytes the field spans: 1..9 (9 only when off > 0 and count > 56).
    const unsigned need = (off + count + 7) / 8;
    u64 lo = 0;
    std::memcpy(&lo, buf.data() + byte, need < 8 ? need : 8);
    u64 value = lo >> off;
    // A ninth byte is the field's last byte, byte + 8; indexing it from
    // the field's end keeps it visibly inside a buffer the field fits.
    if (need > 8)
        value |= static_cast<u64>(buf[(pos + count - 1) / 8]) << (64 - off);
    return count == 64 ? value : (value & ((1ULL << count) - 1));
}

/** Deposit the low @p count (<= 64) bits of @p value at bit @p pos. */
inline void
setBits(std::span<u8> buf, unsigned pos, unsigned count, u64 value)
{
    if constexpr (std::endian::native != std::endian::little) {
        bitref::setBits(buf, pos, count, value);
        return;
    }
    if (count == 0)
        return;
    if (count < 64)
        value &= (1ULL << count) - 1;
    const unsigned byte = pos / 8;
    const unsigned off = pos % 8;
    // Read-modify-write the up-to-8 bytes holding the low part of the
    // field, then patch the at-most-7 spill bits in the ninth byte.
    const unsigned lo_bits = count < 64 - off ? count : 64 - off;
    const unsigned lo_bytes = (off + lo_bits + 7) / 8;
    u64 word = 0;
    std::memcpy(&word, buf.data() + byte, lo_bytes);
    const u64 lo_mask =
        (lo_bits == 64 ? ~0ULL : ((1ULL << lo_bits) - 1)) << off;
    word = (word & ~lo_mask) | ((value << off) & lo_mask);
    std::memcpy(buf.data() + byte, &word, lo_bytes);
    if (lo_bits < count) {
        // The spill byte byte + 8 is the field's last byte (see getBits).
        u8 &last = buf[(pos + count - 1) / 8];
        const unsigned hi_bits = count - lo_bits;
        const u8 hi_mask = static_cast<u8>((1u << hi_bits) - 1);
        last = static_cast<u8>((last & ~hi_mask) |
                               (static_cast<u8>(value >> lo_bits) & hi_mask));
    }
}

/**
 * Copy @p count bits from @p src starting at bit @p src_pos into @p dst
 * starting at bit @p dst_pos (LSB-first addressing on both sides).
 *
 * Fast paths: byte-aligned non-overlapping copies become one memcpy plus
 * a bit tail; everything else moves 64-bit chunks through the word-wise
 * getBits/setBits. Chunking order matches bitref::copyBits exactly, so
 * overlapping ranges behave identically to the reference.
 */
inline void
copyBits(std::span<const u8> src, unsigned src_pos, std::span<u8> dst,
         unsigned dst_pos, unsigned count)
{
    if (src_pos % 8 == 0 && dst_pos % 8 == 0 && count >= 8) {
        const u8 *s = src.data() + src_pos / 8;
        u8 *d = dst.data() + dst_pos / 8;
        const unsigned span_bytes = (count + 7) / 8;
        if (d + span_bytes <= s || s + span_bytes <= d) {
            std::memcpy(d, s, count / 8);
            const unsigned tail = count % 8;
            if (tail > 0) {
                const unsigned done = count - tail;
                setBits(dst, dst_pos + done, tail,
                        getBits(src, src_pos + done, tail));
            }
            return;
        }
    }
    while (count > 0) {
        const unsigned chunk = count < 64 ? count : 64;
        setBits(dst, dst_pos, chunk, getBits(src, src_pos, chunk));
        src_pos += chunk;
        dst_pos += chunk;
        count -= chunk;
    }
}

/** Parity (XOR of all bits) of a 64-bit word. */
inline bool
parity64(u64 v)
{
    return std::popcount(v) & 1u;
}

/**
 * Sequential bit writer over a caller-owned byte buffer. The buffer must be
 * zero-initialised by the caller; the writer only ORs bits in. Fixed-size
 * codec outputs (e.g. a 60-byte compressed payload) use this to assemble
 * their bit streams.
 */
class BitWriter
{
  public:
    explicit BitWriter(std::span<u8> buf) : buf_(buf), pos_(0) {}

    /** Append the low @p count bits of @p value. */
    void
    write(u64 value, unsigned count)
    {
        COP_ASSERT(pos_ + count <= buf_.size() * 8);
        setBits(buf_, pos_, count, value);
        pos_ += count;
    }

    /** Bits written so far. */
    unsigned bitPos() const { return pos_; }

    /** Remaining capacity in bits. */
    unsigned
    bitsLeft() const
    {
        return static_cast<unsigned>(buf_.size() * 8) - pos_;
    }

  private:
    std::span<u8> buf_;
    unsigned pos_;
};

/**
 * Sequential bit reader over a byte buffer; the mirror of BitWriter.
 */
class BitReader
{
  public:
    explicit BitReader(std::span<const u8> buf) : buf_(buf), pos_(0) {}

    /** Consume and return @p count bits. */
    u64
    read(unsigned count)
    {
        COP_ASSERT(pos_ + count <= buf_.size() * 8);
        const u64 value = getBits(buf_, pos_, count);
        pos_ += count;
        return value;
    }

    /** Bits consumed so far. */
    unsigned bitPos() const { return pos_; }

    /** Bits remaining in the underlying buffer. */
    unsigned
    bitsLeft() const
    {
        return static_cast<unsigned>(buf_.size() * 8) - pos_;
    }

  private:
    std::span<const u8> buf_;
    unsigned pos_;
};

} // namespace cop

#endif // COP_COMMON_BITS_HPP
