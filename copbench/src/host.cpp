#include "host.hpp"

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

namespace copbench {

namespace {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** One pass: 8-bit syndrome of every word, folded into a checksum. */
std::uint64_t
syndromePass(const std::vector<std::uint64_t> &words,
             const std::array<std::uint64_t, 8> &rows)
{
    std::uint64_t acc = 0;
    for (const std::uint64_t w : words) {
        unsigned syndrome = 0;
        for (unsigned r = 0; r < rows.size(); ++r)
            syndrome |= static_cast<unsigned>(std::popcount(w & rows[r]) & 1)
                        << r;
        acc = acc * 31 + syndrome;
    }
    return acc;
}

double
calibrationScore()
{
    std::uint64_t state = 0x5eed;
    std::array<std::uint64_t, 8> rows{};
    for (auto &row : rows)
        row = splitmix64(state);
    std::vector<std::uint64_t> words(256 * 8);
    for (auto &w : words)
        w = splitmix64(state);

    constexpr unsigned kRepeats = 400;
    double best = 0;
    std::uint64_t checksum = 0;
    for (unsigned pass = 0; pass < 5; ++pass) {
        const auto start = std::chrono::steady_clock::now();
        for (unsigned i = 0; i < kRepeats; ++i)
            checksum += syndromePass(words, rows) + i;
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        const double score =
            static_cast<double>(words.size()) * kRepeats / s / 1e6;
        if (score > best)
            best = score;
    }
    // The checksum is data-dependent; printing its parity keeps the
    // kernel from being optimised away.
    std::fprintf(stderr, "[copbench] calibration checksum parity %u\n",
                 static_cast<unsigned>(checksum & 1));
    return best;
}

} // namespace

std::string
hostRecordJson()
{
#ifdef __clang__
    const char *compiler = "clang";
#else
    const char *compiler = "gcc";
#endif
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"nproc\":%u,\"compiler\":\"%s %s\",\"build_type\":"
                  "\"%s\",\"calibration_mwords_per_s\":%.6g}",
                  std::thread::hardware_concurrency(), compiler, __VERSION__,
                  COPBENCH_BUILD_TYPE, calibrationScore());
    return buf;
}

} // namespace copbench
