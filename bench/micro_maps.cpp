/**
 * @file
 * Layer micro bench for the per-block hash tables (common/flat_map.hpp):
 * find-hit, find-miss and insert on FlatMap<CacheBlock> (the stored DRAM
 * image table) and FlatMap<u32> (the content pool's version map), each
 * at 2^21 slots — the size the image table reaches on the repository
 * benchmark's System runs — and at loads 0.45 and 0.85.
 *
 * Keys are block-aligned addresses, as in the simulator; lookups visit
 * them in a shuffled order so the hardware prefetcher cannot follow the
 * slot array. Timing is process CPU time: one untimed warm-up pass,
 * then the median, min and max over five passes, reported in ns per
 * operation. Results print to stdout and land in
 * bench/results/micro_maps.json (directory overridable via
 * COP_BENCH_RESULTS).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/cache_block.hpp"
#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "run_util.hpp"

namespace cop {
namespace {

constexpr u64 kSlots = u64{1} << 21;
constexpr unsigned kPasses = 5;
constexpr size_t kQueries = size_t{1} << 20;

/** Keeps the optimiser from deleting measured work. */
volatile u64 g_sink = 0;

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Median, min and max of per-pass ns/op. */
struct Spread
{
    double median = 0, min = 0, max = 0;
};

/**
 * Run @p pass (which returns the CPU seconds it spent on @p ops
 * operations) once untimed, then kPasses times.
 */
template <typename Pass>
Spread
measure(u64 ops, Pass &&pass)
{
    pass();
    std::vector<double> ns;
    for (unsigned i = 0; i < kPasses; ++i)
        ns.push_back(pass() * 1e9 / static_cast<double>(ops));
    std::sort(ns.begin(), ns.end());
    return {ns[ns.size() / 2], ns.front(), ns.back()};
}

std::string
spreadJson(const Spread &s)
{
    bench::JsonObjectBuilder obj;
    obj.add("median", s.median);
    obj.add("min", s.min);
    obj.add("max", s.max);
    return obj.str();
}

/** A key-dependent value, so stores cannot be folded away. */
template <typename V>
V
valueFor(u64 key)
{
    if constexpr (std::is_same_v<V, CacheBlock>) {
        CacheBlock b;
        b.setWord64(0, key);
        return b;
    } else {
        return static_cast<V>(key >> 6);
    }
}

template <typename V>
u64
touch(const V &v)
{
    if constexpr (std::is_same_v<V, CacheBlock>)
        return v.word64(0);
    else
        return v;
}

/** Time the three operations on FlatMap<V> filled to @p load. */
template <typename V>
std::string
measureMap(const char *name, double load)
{
    const u64 entries = static_cast<u64>(load * static_cast<double>(kSlots));
    Rng rng(0x3A95);
    std::vector<u64> keys(entries);
    for (u64 i = 0; i < entries; ++i)
        keys[i] = i * kBlockBytes;
    std::vector<u64> hits(kQueries), misses(kQueries);
    for (size_t i = 0; i < kQueries; ++i) {
        hits[i] = keys[rng.below(entries)];
        misses[i] = (entries + rng.below(entries)) * kBlockBytes;
    }
    for (u64 i = entries - 1; i > 0; --i) // Fisher-Yates
        std::swap(keys[i], keys[rng.below(i + 1)]);

    FlatMap<V> map;
    const Spread insert = measure(entries, [&] {
        map = FlatMap<V>();
        map.reserve(entries);
        const double t0 = cpuSeconds();
        for (const u64 k : keys)
            map.emplace(k, valueFor<V>(k));
        return cpuSeconds() - t0;
    });
    if (map.capacity() != kSlots || map.size() != entries) {
        std::fprintf(stderr, "micro_maps: %s holds %llu entries in %llu "
                             "slots, expected %llu in %llu\n",
                     name, static_cast<unsigned long long>(map.size()),
                     static_cast<unsigned long long>(map.capacity()),
                     static_cast<unsigned long long>(entries),
                     static_cast<unsigned long long>(kSlots));
        std::exit(1);
    }

    const auto lookups = [&](const std::vector<u64> &queries) {
        const double t0 = cpuSeconds();
        u64 acc = 0;
        for (const u64 k : queries) {
            const auto it = map.find(k);
            if (it != map.end())
                acc += touch(it->second);
        }
        g_sink = g_sink + acc;
        return cpuSeconds() - t0;
    };
    const Spread find_hit = measure(kQueries, [&] { return lookups(hits); });
    const Spread find_miss =
        measure(kQueries, [&] { return lookups(misses); });

    std::printf("%-22s load %.2f  find-hit %7.1f  find-miss %7.1f  "
                "insert %7.1f ns/op (median of %u)\n",
                name, load, find_hit.median, find_miss.median,
                insert.median, kPasses);
    bench::JsonObjectBuilder obj;
    obj.add("entries", entries);
    obj.addRaw("find_hit_ns", spreadJson(find_hit));
    obj.addRaw("find_miss_ns", spreadJson(find_miss));
    obj.addRaw("insert_ns", spreadJson(insert));
    return obj.str();
}

int
run()
{
    bench::JsonObjectBuilder cells;
    for (const double load : {0.45, 0.85}) {
        char suffix[16];
        std::snprintf(suffix, sizeof suffix, "@%.2f", load);
        cells.addRaw(std::string("cacheblock") + suffix,
                     measureMap<CacheBlock>("FlatMap<CacheBlock>", load));
        cells.addRaw(std::string("u32") + suffix,
                     measureMap<u32>("FlatMap<u32>", load));
    }
    bench::JsonObjectBuilder top;
    top.add("bench", std::string("micro_maps"));
    top.add("slots", kSlots);
    top.add("passes", static_cast<u64>(kPasses));
    top.add("queries_per_pass", static_cast<u64>(kQueries));
    top.add("timing", std::string("process_cpu"));
    top.addRaw("maps", cells.str());
    bench::writeResultsFile("micro_maps.json", top.str());
    return 0;
}

} // namespace
} // namespace cop

int
main(int argc, char **argv)
{
    (void)argv;
    if (argc != 1) {
        std::fprintf(stderr, "usage: micro_maps\n");
        return 2;
    }
    return cop::run();
}
