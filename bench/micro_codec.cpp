/**
 * @file
 * Codec throughput harness: blocks/sec for the full COP encode/decode
 * paths, countValidCodewords, each standalone compression scheme, and
 * Hsiao syndrome generation and encode, over a deterministic 9-category
 * block mix.
 * Results print to stdout and land in bench/results/micro_codec.json
 * (directory overridable via COP_BENCH_RESULTS). BENCH_codec.json at
 * the repo root records the before/after numbers of the word-wise
 * kernel rewrite measured with this exact methodology (regeneration
 * steps in EXPERIMENTS.md).
 *
 * `--quick` shortens each measurement window for the CI perf-smoke
 * job; the numbers are noisier but the regression gate in
 * scripts/check_perf.py leaves margin for that.
 *
 * These are software-throughput proxies for the "simple hardware"
 * claims of paper Sections 3.1-3.2 — the relative ordering
 * (MSB < RLE < FPC work) mirrors the relative logic complexity.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "compress/bdi.hpp"
#include "compress/combined.hpp"
#include "compress/fpc.hpp"
#include "core/codec.hpp"
#include "run_util.hpp"
#include "workloads/block_gen.hpp"

namespace cop {
namespace {

/**
 * The measurement corpus: @p per_category blocks of each of the nine
 * generator categories, interleaved so every pass sweeps all content
 * kinds uniformly. Fixed seed — identical across runs and machines,
 * and identical to the pre-rewrite baseline run.
 */
std::vector<CacheBlock>
defaultMix(unsigned per_category)
{
    Rng rng(42);
    BlockGenParams params;
    std::vector<std::vector<CacheBlock>> by_cat(kBlockCategories);
    for (unsigned c = 0; c < kBlockCategories; ++c) {
        for (unsigned i = 0; i < per_category; ++i) {
            by_cat[c].push_back(generateBlock(
                static_cast<BlockCategory>(c), params, rng));
        }
    }
    std::vector<CacheBlock> mix;
    mix.reserve(static_cast<size_t>(per_category) * kBlockCategories);
    for (unsigned i = 0; i < per_category; ++i)
        for (unsigned c = 0; c < kBlockCategories; ++c)
            mix.push_back(by_cat[c][i]);
    return mix;
}

double
nowMs()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double, std::milli>(
               Clock::now().time_since_epoch())
        .count();
}

/** Keeps the optimiser from deleting measured work. */
volatile unsigned g_sink = 0;

bench::JsonObjectBuilder g_numbers;

/**
 * Run @p pass (one full sweep over the corpus) repeatedly for at least
 * @p target_ms after one untimed warm-up pass; report blocks/sec.
 */
template <typename Pass>
double
measure(const char *name, size_t blocks_per_pass, double target_ms,
        Pass &&pass)
{
    g_sink = g_sink + pass(); // warm-up
    u64 passes = 0;
    const double t0 = nowMs();
    double t1 = t0;
    do {
        g_sink = g_sink + pass();
        ++passes;
        t1 = nowMs();
    } while (t1 - t0 < target_ms);
    const double bps = static_cast<double>(passes * blocks_per_pass) /
                       ((t1 - t0) / 1000.0);
    std::printf("%-22s %12.0f blocks/s\n", name, bps);
    g_numbers.add(name, bps);
    return bps;
}

int
run(bool quick)
{
    const double target_ms = quick ? 80 : 400;
    const auto mix = defaultMix(256);
    const size_t n = mix.size();

    const CopCodec codec4(CopConfig::fourByte());
    const CopCodec codec8(CopConfig::eightByte());

    std::vector<CacheBlock> stored4;
    stored4.reserve(n);
    for (const auto &b : mix)
        stored4.push_back(codec4.encode(b).stored);

    measure("encode_cop4", n, target_ms, [&] {
        unsigned acc = 0;
        for (const auto &b : mix)
            acc += static_cast<unsigned>(codec4.encode(b).status);
        return acc;
    });
    measure("encode_cop8", n, target_ms, [&] {
        unsigned acc = 0;
        for (const auto &b : mix)
            acc += static_cast<unsigned>(codec8.encode(b).status);
        return acc;
    });

    measure("decode_cop4", n, target_ms, [&] {
        unsigned acc = 0;
        for (const auto &b : stored4)
            acc += codec4.decode(b).validCodewords;
        return acc;
    });
    measure("count_valid_cop4", n, target_ms, [&] {
        unsigned acc = 0;
        for (const auto &b : mix)
            acc += codec4.countValidCodewords(b);
        return acc;
    });

    const MsbCompressor msb(5, true);
    const RleCompressor rle;
    const TxtCompressor txt;
    const FpcCompressor fpc;
    const BdiCompressor bdi;
    std::array<u8, kBlockBytes + 16> buf{};
    auto compressPass = [&](const BlockCompressor &comp, unsigned budget) {
        unsigned acc = 0;
        for (const auto &b : mix) {
            buf.fill(0);
            BitWriter writer(buf);
            acc += comp.compress(b, budget, writer);
        }
        return acc;
    };
    measure("compress_msb", n, target_ms,
            [&] { return compressPass(msb, 478); });
    measure("compress_rle", n, target_ms,
            [&] { return compressPass(rle, 478); });
    measure("compress_txt", n, target_ms,
            [&] { return compressPass(txt, 478); });
    measure("compress_fpc", n, target_ms,
            [&] { return compressPass(fpc, 560); });
    measure("compress_bdi", n, target_ms,
            [&] { return compressPass(bdi, 478); });

    const HsiaoCode &code128 = codes::full128();
    measure("syndrome128", n, target_ms, [&] {
        unsigned acc = 0;
        for (const auto &b : mix)
            for (unsigned s = 0; s < 4; ++s)
                acc += code128.syndrome(b.bytes().subspan(s * 16, 16));
        return acc;
    });
    const HsiaoCode &code523 = codes::wide523();
    std::vector<std::array<u8, 66>> wide;
    {
        Rng rng(1);
        for (unsigned i = 0; i < 64; ++i) {
            std::array<u8, 66> cw{};
            for (auto &v : cw)
                v = static_cast<u8>(rng.next());
            cw[65] &= 0x07; // bits past n = 523 must stay zero
            wide.push_back(cw);
        }
    }
    measure("syndrome_wide523", wide.size(), target_ms, [&] {
        unsigned acc = 0;
        for (const auto &cw : wide)
            acc += code523.syndrome(cw);
        return acc;
    });

    // SECDED encode in place (report-only: check_perf.py gates on no
    // row below). Re-encoding a codeword rewrites the same check bits,
    // so every pass does identical work.
    std::vector<CacheBlock> words = mix;
    measure("secded_encode128", n, target_ms, [&] {
        unsigned acc = 0;
        for (auto &b : words) {
            for (unsigned s = 0; s < 4; ++s) {
                const auto cw = b.bytes().subspan(s * 16, 16);
                code128.encode(cw);
                acc += cw[15];
            }
        }
        return acc;
    });
    std::vector<std::array<u8, 66>> wide_words = wide;
    measure("secded_encode_wide523", wide_words.size(), target_ms, [&] {
        unsigned acc = 0;
        for (auto &cw : wide_words) {
            code523.encode(cw);
            acc += cw[65];
        }
        return acc;
    });

    g_numbers.add("blocks_per_pass", static_cast<u64>(n));
    bench::JsonObjectBuilder top;
    top.add("bench", std::string("micro_codec"));
    top.add("quick", static_cast<u64>(quick ? 1 : 0));
    top.addRaw("throughput_blocks_per_sec", g_numbers.str());
    bench::writeResultsFile("micro_codec.json", top.str());
    return 0;
}

} // namespace
} // namespace cop

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else {
            std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
            return 2;
        }
    }
    return cop::run(quick);
}
