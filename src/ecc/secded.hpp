/**
 * @file
 * General (n, k) Hsiao single-error-correcting, double-error-detecting
 * (SECDED) codes, constructed from odd-weight columns as in Hsiao 1970 —
 * the code family COP builds everything on:
 *
 *  - (72,64)   — the conventional ECC-DIMM reference code;
 *  - (128,120) — the full (untruncated) version of (72,64): four of these
 *                protect one compressed 64-byte COP block (4-byte config);
 *  - (64,56)   — eight of these protect one block in the 8-byte config;
 *  - (523,512) — the wide single-code-word block code used by the ECC
 *                region baseline and the COP-ER entries;
 *  - (512,501) — protects a COP-ER valid-bit block (501 bits + 11 parity).
 *
 * Codeword layout: data bits occupy bit positions [0, k), check bits
 * [k, k + r), LSB-first over the byte buffer (see common/bits.hpp). Bits
 * at positions >= n in the final byte are ignored by the syndrome and must
 * be kept zero by the caller.
 */

#ifndef COP_ECC_SECDED_HPP
#define COP_ECC_SECDED_HPP

#include <span>
#include <vector>

#include "common/bits.hpp"
#include "common/types.hpp"

namespace cop {

/** Outcome classification of one ECC decode. */
enum class EccStatus {
    Ok,             ///< Zero syndrome: valid code word.
    Corrected,      ///< Single-bit error found and repaired in place.
    Uncorrectable,  ///< Detected but not correctable (e.g. double error).
};

/** Result of SecCode::decode. */
struct EccResult
{
    EccStatus status = EccStatus::Ok;
    /** Corrected bit position (valid when status == Corrected). */
    int bitIndex = -1;
    /**
     * True when the syndrome weight is even and nonzero — for a Hsiao code
     * this is the signature of a double-bit error (valid only when status
     * == Uncorrectable).
     */
    bool doubleError = false;

    bool ok() const { return status == EccStatus::Ok; }
    bool corrected() const { return status == EccStatus::Corrected; }
    bool uncorrectable() const { return status == EccStatus::Uncorrectable; }
};

/**
 * A linear single-error-correcting code with k data bits and r check
 * bits (n = k + r total), defined by one r-bit column per codeword bit:
 * the data columns its subclass picks, then check bit i's unit vector
 * 1 << i. The subclasses differ only in that choice of data columns.
 *
 * The implementation precomputes a per-(byte-position, byte-value)
 * syndrome table so that syndrome generation costs one table lookup and
 * XOR per codeword byte — the software analogue of the parallel XOR trees
 * in Figure 2(b) of the paper.
 */
class SecCode
{
  public:
    unsigned dataBits() const { return k_; }
    unsigned checkBits() const { return r_; }
    unsigned codeBits() const { return n_; }
    /** Bytes needed to hold one codeword. */
    unsigned codeBytes() const { return (n_ + 7) / 8; }

    /**
     * Compute and deposit check bits for the data currently in
     * codeword[0, k); overwrites codeword bits [k, k + r).
     */
    void encode(std::span<u8> codeword) const;

    /** Syndrome of a full codeword (0 == valid). */
    u32 syndrome(std::span<const u8> codeword) const;

    /** True iff the codeword has a zero syndrome. */
    bool
    isValidCodeword(std::span<const u8> codeword) const
    {
        return syndrome(codeword) == 0;
    }

    /**
     * Decode and correct in place.
     * @return classification plus the corrected bit position, if any.
     */
    EccResult decode(std::span<u8> codeword) const;

    /** Column (syndrome signature) of bit @p idx — exposed for tests. */
    u32 column(unsigned idx) const { return columns_[idx]; }

    /**
     * Codeword bit the decoder would flip for syndrome @p s, or -1 when
     * @p s is not a single-error signature. Lets reliability models run
     * the decode algebra on flip *patterns* without materialising
     * codeword buffers.
     */
    int bitForSyndrome(u32 s) const { return synToBit_[s]; }

  protected:
    /** @p data_columns holds one distinct r-bit column per data bit. */
    SecCode(unsigned check_bits, std::vector<u32> data_columns);

  private:
    unsigned k_;
    unsigned r_;
    unsigned n_;
    /** Column vector per codeword bit. */
    std::vector<u32> columns_;
    /** syndrome -> codeword bit index, -1 if not a single-error sig. */
    std::vector<int> synToBit_;
    /** [byte_pos * 256 + byte_value] -> syndrome contribution. */
    std::vector<u32> byteSyn_;
};

/**
 * A Hsiao SECDED code: data-bit columns are the odd-weight r-bit
 * vectors of weight >= 3, enumerated in increasing weight then
 * increasing numeric value, so every column has odd weight and an even
 * nonzero syndrome flags a double error. Construction fails (fatal) if
 * k exceeds the number of available odd-weight columns.
 */
class HsiaoCode : public SecCode
{
  public:
    HsiaoCode(unsigned data_bits, unsigned check_bits);
};

/**
 * A Hamming single-error-correcting (SEC, no guaranteed double detection)
 * code. COP-ER uses a (34,28) instance to protect the ECC-region pointer
 * embedded in incompressible blocks (Section 3.3): 6 check bits cannot
 * support SECDED for 28 data bits, and the paper only requires correction.
 * Data columns are the non-power-of-two nonzero r-bit values in
 * increasing order.
 */
class HammingCode : public SecCode
{
  public:
    HammingCode(unsigned data_bits, unsigned check_bits);
};

/** Lazily constructed shared instances of the codes COP uses. */
namespace codes {

/** (72,64): conventional ECC-DIMM SECDED. */
const HsiaoCode &dimm72();
/** (128,120): COP 4-byte configuration code word. */
const HsiaoCode &full128();
/** (64,56): COP 8-byte configuration code word. */
const HsiaoCode &short64();
/** (523,512): wide whole-block code (ECC region baseline, COP-ER entry). */
const HsiaoCode &wide523();
/** (512,501): COP-ER valid-bit block code. */
const HsiaoCode &validBits512();
/** (34,28): COP-ER pointer SEC code. */
const HammingCode &pointer34();
/**
 * (136,128): per-chip on-die SEC over one 128-bit internal word
 * (8 hidden check bits per word, Patel arXiv 2204.10387). Used by the
 * reliability layer's OndieEcc pre-filter, never by the stored format.
 */
const HammingCode &ondie136();

} // namespace codes

} // namespace cop

#endif // COP_ECC_SECDED_HPP
