/**
 * @file
 * Layer micro bench for the per-block table (common/block_state.hpp on
 * common/flat_map.hpp): find-hit, find-miss and insert on
 * FlatMap<BlockState> at 2^21 slots — the size the table reaches on the
 * repository benchmark's System runs — and at loads 0.45 and 0.85, plus
 * the cost of building an empty table reserved to 2^21 slots (the
 * mapped, prefaulted slot array and the zeroed control bytes: the
 * table's share of a System's setup time).
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
#include <utility>
#include <vector>

#include "common/block_state.hpp"
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

/** A key-dependent record, so stores cannot be folded away. */
BlockState
valueFor(u64 key)
{
    BlockState b;
    b.version = static_cast<u32>(key >> 6);
    b.storedVersion = b.version;
    b.lastWrite = key;
    b.stored = Stored::Raw;
    return b;
}

/** Time the three operations on the block table filled to @p load. */
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

    BlockTable map;
    const Spread insert = measure(entries, [&] {
        map = BlockTable();
        map.reserve(entries);
        const double t0 = cpuSeconds();
        for (const u64 k : keys)
            map.emplace(k, valueFor(k));
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
                acc += it->second.lastWrite;
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

/**
 * Time building an empty table reserved to kSlots slots, in ms per
 * table; freeing it is outside the timed region.
 */
Spread
measureBuild()
{
    // The largest entry count that still fits in kSlots slots.
    const u64 entries = kSlots - kSlots / 8 - 1;
    return measure(1, [&] {
        const double t0 = cpuSeconds();
        BlockTable map;
        map.reserve(entries);
        const double spent = cpuSeconds() - t0;
        if (map.capacity() != kSlots) {
            std::fprintf(stderr, "micro_maps: reserved %llu slots, "
                                 "expected %llu\n",
                         static_cast<unsigned long long>(map.capacity()),
                         static_cast<unsigned long long>(kSlots));
            std::exit(1);
        }
        return spent * 1e-6; // measure() reports ns/op; this is ms
    });
}

int
run()
{
    bench::JsonObjectBuilder cells;
    for (const double load : {0.45, 0.85}) {
        char suffix[16];
        std::snprintf(suffix, sizeof suffix, "@%.2f", load);
        cells.addRaw(std::string("blockstate") + suffix,
                     measureMap("FlatMap<BlockState>", load));
    }
    const Spread build = measureBuild();
    std::printf("%-22s reserve %llu slots  build %7.1f ms/table "
                "(median of %u)\n",
                "FlatMap<BlockState>", static_cast<unsigned long long>(kSlots),
                build.median, kPasses);
    bench::JsonObjectBuilder top;
    top.add("bench", std::string("micro_maps"));
    top.add("slots", kSlots);
    // The entry with its key; each slot also has one control byte.
    top.add("slot_bytes", static_cast<u64>(sizeof(BlockTable::value_type)));
    top.add("passes", static_cast<u64>(kPasses));
    top.add("queries_per_pass", static_cast<u64>(kQueries));
    top.add("timing", std::string("process_cpu"));
    top.addRaw("maps", cells.str());
    top.addRaw("build_reserved_ms", spreadJson(build));
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
