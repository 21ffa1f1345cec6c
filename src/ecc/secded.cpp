#include "ecc/secded.hpp"

#include <bit>

namespace cop {

namespace {

/**
 * The data columns of a Hsiao code: odd weight >= 3, ordered by weight
 * then value, so code construction is deterministic.
 *
 * Within one weight the walk uses the next-popcount-permutation trick
 * (Gosper's hack): each step produces the next-larger value with the
 * same popcount in O(1), so construction costs O(weights * count)
 * instead of O(weights * 2^r) — the difference between scanning 2^11
 * values eleven times and visiting only the 512 columns wide523()
 * actually uses. The enumeration order is identical to the original
 * full scan; tests/ecc_test.cpp asserts the generated columns are
 * unchanged against a brute-force recomputation.
 */
std::vector<u32>
hsiaoDataColumns(unsigned k, unsigned r)
{
    COP_ASSERT(r >= 3 && r <= 16);
    std::vector<u32> cols;
    cols.reserve(k);
    const u32 limit = 1u << r;
    for (unsigned weight = 3; weight <= r && cols.size() < k;
         weight += 2) {
        u32 v = (1u << weight) - 1; // smallest value of this weight
        while (v < limit && cols.size() < k) {
            cols.push_back(v);
            const u32 low = v & (~v + 1u);
            const u32 ripple = v + low;
            v = ripple | (((v ^ ripple) >> 2) / low);
        }
    }
    if (cols.size() < k) {
        COP_FATAL("Hsiao(" + std::to_string(k + r) + "," +
                  std::to_string(k) +
                  ") impossible: not enough odd-weight columns");
    }
    return cols;
}

/**
 * The data columns of a Hamming code: the non-power-of-two nonzero
 * r-bit values in increasing order.
 */
std::vector<u32>
hammingDataColumns(unsigned k, unsigned r)
{
    COP_ASSERT(r >= 2 && r <= 16);
    std::vector<u32> cols;
    cols.reserve(k);
    for (u32 v = 3; v < (1u << r) && cols.size() < k; ++v) {
        if (std::popcount(v) >= 2)
            cols.push_back(v);
    }
    if (cols.size() < k) {
        COP_FATAL("Hamming(" + std::to_string(k + r) + "," +
                  std::to_string(k) + ") impossible");
    }
    return cols;
}

/** syndrome -> bit index map; every column must be distinct. */
std::vector<int>
buildSynToBit(const std::vector<u32> &columns, unsigned r)
{
    std::vector<int> map(1u << r, -1);
    for (unsigned i = 0; i < columns.size(); ++i) {
        COP_ASSERT(map[columns[i]] == -1);
        map[columns[i]] = static_cast<int>(i);
    }
    return map;
}

/**
 * Per-(byte position, byte value) syndrome contribution table — the
 * software analogue of the parallel XOR trees in Figure 2(b); bits at
 * positions >= n contribute nothing.
 */
std::vector<u32>
buildByteSyndromeTable(const std::vector<u32> &columns, unsigned n)
{
    const unsigned num_bytes = (n + 7) / 8;
    std::vector<u32> table(static_cast<size_t>(num_bytes) * 256, 0);
    for (unsigned p = 0; p < num_bytes; ++p) {
        for (unsigned v = 0; v < 256; ++v) {
            u32 s = 0;
            for (unsigned b = 0; b < 8; ++b) {
                const unsigned idx = p * 8 + b;
                if ((v >> b & 1u) && idx < n)
                    s ^= columns[idx];
            }
            table[static_cast<size_t>(p) * 256 + v] = s;
        }
    }
    return table;
}

/** Table-driven syndrome: one lookup + XOR per codeword byte. */
u32
tableSyndrome(const std::vector<u32> &table, std::span<const u8> codeword,
              unsigned num_bytes)
{
    u32 s = 0;
    const u32 *t = table.data();
    for (unsigned p = 0; p < num_bytes; ++p)
        s ^= t[static_cast<size_t>(p) * 256 + codeword[p]];
    return s;
}

} // namespace

SecCode::SecCode(unsigned check_bits, std::vector<u32> data_columns)
    : k_(static_cast<unsigned>(data_columns.size())), r_(check_bits),
      n_(k_ + check_bits), columns_(std::move(data_columns))
{
    for (unsigned i = 0; i < r_; ++i)
        columns_.push_back(1u << i);
    synToBit_ = buildSynToBit(columns_, r_);
    byteSyn_ = buildByteSyndromeTable(columns_, n_);
}

void
SecCode::encode(std::span<u8> codeword) const
{
    // Check bit i's column is the unit vector 1 << i, so a check vector
    // c contributes exactly c to the syndrome. Setting c to the syndrome
    // of the data bits alone (k/8 whole bytes plus the low k%8 bits of
    // the next) therefore zeroes the total syndrome — one pass over the
    // data bytes; the check field's old contents are never read, and
    // bits at positions >= n are left as they are.
    COP_ASSERT(codeword.size() >= codeBytes());
    const unsigned whole = k_ / 8;
    const unsigned off = k_ % 8;
    u32 s = tableSyndrome(byteSyn_, codeword, whole);
    if (off != 0) {
        const unsigned low = codeword[whole] & ((1u << off) - 1u);
        s ^= byteSyn_[static_cast<size_t>(whole) * 256 + low];
    }
    // The r <= 16 check bits start at bit off of byte `whole`, so they
    // span at most three bytes: write them byte by byte, keeping the
    // data bits below and the bits past n above.
    const u32 mask = ((1u << r_) - 1u) << off;
    const u32 bits = s << off;
    for (unsigned i = 0; (mask >> (8 * i)) != 0; ++i) {
        const u8 m = static_cast<u8>(mask >> (8 * i));
        u8 &byte = codeword[whole + i];
        byte = static_cast<u8>((byte & ~m) | ((bits >> (8 * i)) & m));
    }
}

u32
SecCode::syndrome(std::span<const u8> codeword) const
{
    return tableSyndrome(byteSyn_, codeword, codeBytes());
}

EccResult
SecCode::decode(std::span<u8> codeword) const
{
    const u32 s = syndrome(codeword);
    if (s == 0)
        return {EccStatus::Ok, -1, false};

    const int bit = synToBit_[s];
    if (bit >= 0) {
        flipBit(codeword, static_cast<unsigned>(bit));
        return {EccStatus::Corrected, bit, false};
    }
    const bool even = (std::popcount(s) % 2) == 0;
    return {EccStatus::Uncorrectable, -1, even};
}

HsiaoCode::HsiaoCode(unsigned data_bits, unsigned check_bits)
    : SecCode(check_bits, hsiaoDataColumns(data_bits, check_bits))
{
}

HammingCode::HammingCode(unsigned data_bits, unsigned check_bits)
    : SecCode(check_bits, hammingDataColumns(data_bits, check_bits))
{
}

namespace codes {

const HsiaoCode &
dimm72()
{
    static const HsiaoCode code(64, 8);
    return code;
}

const HsiaoCode &
full128()
{
    static const HsiaoCode code(120, 8);
    return code;
}

const HsiaoCode &
short64()
{
    static const HsiaoCode code(56, 8);
    return code;
}

const HsiaoCode &
wide523()
{
    static const HsiaoCode code(512, 11);
    return code;
}

const HsiaoCode &
validBits512()
{
    static const HsiaoCode code(501, 11);
    return code;
}

const HammingCode &
pointer34()
{
    static const HammingCode code(28, 6);
    return code;
}

const HammingCode &
ondie136()
{
    static const HammingCode code(128, 8);
    return code;
}

} // namespace codes

} // namespace cop
