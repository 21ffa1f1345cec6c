/**
 * @file
 * googletest printers for value-parameterised suites. googletest puts
 * the printed parameter into each listed test name, so a parameter
 * must print by value: an address changes every time the binary is
 * relinked, and a raw-byte dump includes uninitialised padding.
 */

#ifndef COP_TESTS_TEST_PRINT_HPP
#define COP_TESTS_TEST_PRINT_HPP

#include <ostream>

#include "core/config.hpp"
#include "ecc/secded.hpp"

namespace cop {

inline void
PrintTo(const HsiaoCode *code, std::ostream *os)
{
    *os << "HsiaoCode(" << code->codeBits() << "," << code->dataBits()
        << ")";
}

inline void
PrintTo(const CopConfig &cfg, std::ostream *os)
{
    *os << "CopConfig(checkBytes=" << cfg.checkBytes
        << ",threshold=" << cfg.threshold
        << ",staticHash=" << cfg.useStaticHash
        << ",transferBits=" << cfg.computeTransferBits << ")";
}

} // namespace cop

#endif // COP_TESTS_TEST_PRINT_HPP
