/**
 * @file
 * copbench: the measuring program behind copbench/run.py. One call
 * measures one workload for one seed and time budget:
 *
 *   copbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * and prints tagged JSON lines that run.py aggregates into metrics:
 *
 *   host   {...}  host record: CPUs, compiler, build type, calibration
 *   sample {...}  one timed sample (untraced mode)
 *   layer  {...}  per-layer metrics of one traced pass (traced mode)
 *   info   {...}  simulated statistics printed beside the metrics
 *   check  {...}  one output check ("ok":false fails the run)
 *   end    {...}  runs attempted and failed, peak resident memory
 *
 * Untraced mode times System construction and System::run() (or the
 * whole Fig. 11 grid on the experiment runner) with tracing off.
 * Traced mode runs the workload's reference configuration through the
 * traced loop (traced.hpp) next to an untraced System and checks
 * that both give identical results. See README.md for the workloads.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.hpp"
#include "host.hpp"
#include "sim/runner.hpp"
#include "traced.hpp"

namespace copbench {
namespace {

using namespace cop;

/**
 * One benchmark workload and its reference cell: the configuration the
 * traced run drives and the serial oracle fast timing is compared to.
 */
struct Workload
{
    const char *name;
    const char *profile;
    ControllerKind kind;
    u64 epochsPerCore;
    /** Timed unit is the whole Fig. 11 grid, else one serial run(). */
    bool grid;
};

constexpr Workload kWorkloads[] = {
    {"fig11_grid", "lbm", ControllerKind::CopEr, 12000, true},
    {"coper_lbm", "lbm", ControllerKind::CopEr, 40000, false},
    {"unprot_mcf", "mcf", ControllerKind::Unprotected, 200000, false},
    {"cop4_gcc", "gcc", ControllerKind::Cop4, 250000, false},
};

/** Written-back blocks the traced pass keeps for the codec replay. */
constexpr size_t kMaxReplayBlocks = size_t{1} << 18;

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Process CPU time, summed over all threads. */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

unsigned
hostCpus()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/** Flat JSON object writer for the output lines. */
class Json
{
  public:
    Json &
    add(const std::string &name, double value)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      std::isfinite(value) ? value : 0.0);
        return addRaw(name, buf);
    }

    Json &
    add(const std::string &name, u64 value)
    {
        return addRaw(name, std::to_string(value));
    }

    Json &
    add(const std::string &name, const std::string &value)
    {
        std::string quoted = "\"";
        quoted += jsonEscape(value);
        quoted += '"';
        return addRaw(name, quoted);
    }

    Json &
    add(const std::string &name, bool value)
    {
        return addRaw(name, value ? "true" : "false");
    }

    Json &
    addRaw(const std::string &name, const std::string &json)
    {
        if (!body_.empty())
            body_ += ',';
        body_ += '"';
        body_ += jsonEscape(name);
        body_ += "\":";
        body_ += json;
        return *this;
    }

    std::string str() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

void
emit(const char *tag, const Json &json)
{
    std::printf("%s %s\n", tag, json.str().c_str());
    std::fflush(stdout);
}

/** Simulation runs (or grid cells) attempted, and failed checks. */
struct Tally
{
    u64 attempted = 0;
    u64 failed = 0;

    /** Fail the run unless @p ok; a failure prints a check line. */
    void
    expect(bool ok, const char *check, const std::string &detail)
    {
        if (ok)
            return;
        ++failed;
        emit("check", Json()
                          .add("name", std::string(check))
                          .add("ok", false)
                          .add("detail", detail));
    }
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** The Table 1 system with the output oracle on. */
SystemConfig
table1(ControllerKind kind, u64 epochs_per_core, u64 seed)
{
    SystemConfig cfg;
    cfg.cores = 4;
    cfg.llc = CacheConfig{4ULL << 20, 16, 34};
    cfg.kind = kind;
    cfg.epochsPerCore = epochs_per_core;
    cfg.verifyData = true;
    cfg.seedSalt = seed;
    return cfg;
}

/** @p cfg in fast timing with min(nproc, 4) shards (at least 2). */
SystemConfig
fastVariant(SystemConfig cfg)
{
    cfg.fastTiming = true;
    cfg.simThreads = std::clamp(hostCpus(), 2u, 4u);
    return cfg;
}

std::string
resultsJson(const SystemResults &r)
{
    std::string out;
    appendResultsJson(out, r);
    return out;
}

/** FNV-1a 64 of @p text, as 16 hex digits. */
std::string
digestOf(const std::string &text)
{
    u64 h = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** One System built and run, construction and run() timed apart. */
struct TimedRun
{
    SystemResults results;
    double setupS = 0;
    double wallS = 0;
    double cpuS = 0;
};

TimedRun
timedRun(const WorkloadProfile &profile, const SystemConfig &cfg)
{
    TimedRun t;
    const double t0 = wallNow();
    auto sys = std::make_unique<System>(profile, cfg);
    t.setupS = wallNow() - t0;
    const double c1 = cpuNow();
    const double t1 = wallNow();
    t.results = sys->run();
    t.wallS = wallNow() - t1;
    t.cpuS = cpuNow() - c1;
    return t;
}

/** The scheme runs the COP codec (and so the encode memo). */
bool
isCodecScheme(ControllerKind kind)
{
    return kind == ControllerKind::Cop4 || kind == ControllerKind::Cop8 ||
           kind == ControllerKind::CopEr ||
           kind == ControllerKind::CopErNaive;
}

/**
 * Warm-state guard: most misses must evict (the LLC was full for most
 * of the run) and dirty evictions must be a steady share of misses, so
 * the writeback, codec and metadata paths do real work.
 */
void
warmGuard(const SystemResults &r, ControllerKind kind, Tally &tally)
{
    const bool codec = isCodecScheme(kind);
    const double misses = static_cast<double>(r.llcMisses);
    const bool ok = r.llcMisses > 0 &&
                    static_cast<double>(r.llc.evictions) >= 0.75 * misses &&
                    static_cast<double>(r.llc.dirtyEvictions) >=
                        0.05 * misses &&
                    (!codec || r.mem.encodeCalls > 0);
    emit("info", Json()
                     .add("llc_misses", r.llcMisses)
                     .add("llc_evictions", r.llc.evictions)
                     .add("llc_dirty_evictions", r.llc.dirtyEvictions)
                     .add("writebacks", r.writebacks)
                     .add("codec_encode_calls", r.mem.encodeCalls)
                     .add("meta_dram_reads", r.mem.metaReads));
    tally.expect(ok, "warm_state",
                 "need evictions >= 0.75 and dirty evictions >= 0.05 of "
                 "misses");
}

/** The untimed fast-timing run of @p ref and its host-time figures. */
struct FastRun
{
    SystemResults results;
    double cpuPerWall = 0;
};

FastRun
fastRun(const WorkloadProfile &profile, const SystemConfig &ref,
        Tally &tally)
{
    const TimedRun t = timedRun(profile, fastVariant(ref));
    ++tally.attempted;
    tally.expect(t.results.fastTiming, "fast_timing_run",
                 "the run did not use fast timing");
    return FastRun{t.results, ratio(t.cpuS, t.wallS)};
}

/** Fast timing's IPC divergence from the serial oracle, as info. */
void
emitDivergence(const SystemResults &fast, const SystemResults &oracle)
{
    emit("info",
         Json()
             .add("ft_ipc_divergence",
                  ratio(std::abs(fast.ipc - oracle.ipc), oracle.ipc))
             .add("oracle_ipc", oracle.ipc)
             .add("fast_ipc", fast.ipc));
}

// --- the Fig. 11 grid ----------------------------------------------------

struct GridCell
{
    const WorkloadProfile *profile;
    ControllerKind kind;
};

std::vector<GridCell>
fig11Cells()
{
    static const ControllerKind kinds[] = {
        ControllerKind::Unprotected, ControllerKind::Cop4,
        ControllerKind::CopEr, ControllerKind::EccRegion};
    std::vector<GridCell> cells;
    for (const WorkloadProfile *p : WorkloadRegistry::memoryIntensive())
        for (const ControllerKind kind : kinds)
            cells.push_back(GridCell{p, kind});
    return cells;
}

struct GridRun
{
    std::vector<SystemResults> results;
    std::vector<double> cellS;
    double setupS = 0;
    double wallS = 0;
    double cpuS = 0;
    unsigned jobs = 1;
    u64 epochs = 0;
    std::string digest;
};

/** Every Fig. 11 cell on the experiment runner, min(nproc, 4) jobs. */
GridRun
runGrid(const Workload &w, u64 seed)
{
    const std::vector<GridCell> cells = fig11Cells();
    GridRun g;
    g.results.resize(cells.size());
    std::vector<double> setup(cells.size(), 0.0);
    std::vector<double> wallMs;
    RunnerOptions opts;
    g.jobs = std::min(hostCpus(), 4u);
    opts.jobs = g.jobs;

    const double c0 = cpuNow();
    const double t0 = wallNow();
    runIndexed(
        cells.size(),
        [&](size_t i) {
            const double s = wallNow();
            System sys(*cells[i].profile,
                       table1(cells[i].kind, w.epochsPerCore, seed));
            setup[i] = wallNow() - s;
            g.results[i] = sys.run();
        },
        opts, &wallMs);
    g.wallS = wallNow() - t0;
    g.cpuS = cpuNow() - c0;

    std::string all;
    for (size_t i = 0; i < cells.size(); ++i) {
        g.cellS.push_back(wallMs[i] / 1000.0);
        g.setupS += setup[i];
        g.epochs += w.epochsPerCore * 4;
        all += resultsJson(g.results[i]);
    }
    g.digest = digestOf(all);
    return g;
}

size_t
referenceCellIndex(const Workload &w)
{
    const std::vector<GridCell> cells = fig11Cells();
    for (size_t i = 0; i < cells.size(); ++i)
        if (cells[i].profile->name == w.profile && cells[i].kind == w.kind)
            return i;
    COP_FATAL("the reference cell is not in the Fig. 11 grid");
}

// --- untraced mode ---------------------------------------------------------

void
emitSample(double wall, double cpu, double setup, u64 epochs,
           const std::string &digest, const std::vector<double> &cells)
{
    std::string list;
    for (const double c : cells) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%s%.9g", list.empty() ? "" : ",",
                      c);
        list += buf;
    }
    emit("sample", Json()
                       .add("wall_s", wall)
                       .add("cpu_s", cpu)
                       .add("setup_s", setup)
                       .add("epochs", epochs)
                       .add("digest", digest)
                       .addRaw("cells_s", "[" + list + "]"));
}

/**
 * Call @p sample at least @p min_samples times, then again only while
 * the next call is expected to end within @p seconds of the start.
 */
template <typename Sample>
void
sampleFor(double seconds, unsigned min_samples, Sample &&sample)
{
    const double start = wallNow();
    for (unsigned n = 1;; ++n) {
        sample();
        const double elapsed = wallNow() - start;
        if (n >= min_samples && elapsed * (n + 1) / n > seconds)
            return;
    }
}

void
measureGrid(const Workload &w, u64 seed, double seconds, Tally &tally)
{
    std::string first;
    SystemResults reference;
    sampleFor(seconds, 3, [&] {
        const GridRun g = runGrid(w, seed);
        tally.attempted += g.results.size();
        if (first.empty()) {
            first = g.digest;
            reference = g.results[referenceCellIndex(w)];
        }
        tally.expect(g.digest == first, "sim_digest_repeats",
                     g.digest + " != " + first);
        emitSample(g.wallS, g.cpuS, g.setupS, g.epochs, g.digest, g.cellS);
    });
    const WorkloadProfile &profile = WorkloadRegistry::byName(w.profile);
    const FastRun fast =
        fastRun(profile, table1(w.kind, w.epochsPerCore, seed), tally);
    emitDivergence(fast.results, reference);
}

void
measureSystem(const Workload &w, u64 seed, double seconds, Tally &tally)
{
    const WorkloadProfile &profile = WorkloadRegistry::byName(w.profile);
    const SystemConfig ref = table1(w.kind, w.epochsPerCore, seed);

    std::string first;
    SystemResults oracle;
    sampleFor(seconds, 3, [&] {
        const TimedRun t = timedRun(profile, ref);
        const std::string digest = digestOf(resultsJson(t.results));
        ++tally.attempted;
        if (first.empty()) {
            first = digest;
            oracle = t.results;
        }
        tally.expect(digest == first, "sim_digest_repeats",
                     digest + " != " + first);
        emitSample(t.wallS, t.cpuS, t.setupS, ref.epochsPerCore * ref.cores,
                   digest, {t.wallS});
    });

    warmGuard(oracle, w.kind, tally);
    emitDivergence(fastRun(profile, ref, tally).results, oracle);
}

// --- traced mode -----------------------------------------------------------

/** Per-layer metrics of one traced pass. */
Json
layerMetrics(const TracedRun &tr, const SystemResults &r,
             const SystemConfig &cfg, const CodecReplay &codec,
             const ReplayTiming &dram)
{
    Json j;
    double total = 0;
    for (unsigned s = 0; s < kSpanCount; ++s)
        total += tr.spans().totals(static_cast<SpanId>(s)).selfNs;
    for (unsigned s = 0; s < kSpanCount; ++s) {
        const SpanTracer::Totals &t = tr.spans().totals(static_cast<SpanId>(s));
        const std::string name = kSpanNames[s];
        if (static_cast<SpanId>(s) != SpanId::Loop) {
            j.add(name + ".calls", t.calls)
                .add(name + ".ns",
                     ratio(t.selfNs, static_cast<double>(t.calls)));
        }
        j.add(name + ".share", ratio(t.selfNs, total));
    }
    const bool codecScheme = isCodecScheme(cfg.kind);
    const HistogramSummary lat = r.dram.readLatency.summary();
    j.add("workloads.content_hit_ratio",
          ratio(static_cast<double>(r.poolContentCacheHits),
                static_cast<double>(r.poolBlockForCalls)))
        .add("cache.hit_ratio",
             ratio(static_cast<double>(r.llc.hits),
                   static_cast<double>(r.llc.hits + r.llc.misses)))
        .add("mem.meta_dram_reads", r.mem.metaReads)
        .add("mem.meta_cache_hit_ratio",
             ratio(static_cast<double>(r.mem.metaCacheHits),
                   static_cast<double>(r.mem.metaCacheHits +
                                       r.mem.metaCacheMisses)))
        .add("core.encode.calls", r.mem.encodeCalls)
        .add("core.encode.ns", codec.encode.nsPerCall)
        .add("core.decode.calls", codecScheme ? tr.imageFills() : u64{0})
        .add("core.decode.ns", codec.decode.nsPerCall)
        .add("core.memo_hit_ratio",
             ratio(static_cast<double>(r.mem.encodeMemoHits),
                   static_cast<double>(r.mem.encodeCalls)))
        .add("dram.access.calls", dram.calls)
        .add("dram.access.ns", dram.nsPerCall)
        .add("dram.requests", r.dram.reads + r.dram.writes)
        .add("dram.row_hit_ratio", r.dram.rowHitRate())
        .add("dram.bus_utilisation",
             ratio(static_cast<double>(r.dram.busBusyCycles),
                   static_cast<double>(r.cycles) * cfg.dram.channels))
        .add("dram.read_latency_cycles.p50", lat.p50)
        .add("dram.read_latency_cycles.p99", lat.p99);
    return j;
}

/**
 * Traced passes of @p ref for about @p seconds: each pass runs an
 * untraced System and the traced loop on the same configuration,
 * checks that their results are identical, replays the recorded call
 * stream into the codec and the DRAM model, and prints one layer line.
 */
void
tracedPasses(const WorkloadProfile &profile, const SystemConfig &ref,
             double seconds, double grid_idle_frac, Tally &tally)
{
    const FastRun fast = fastRun(profile, ref, tally);
    sampleFor(seconds, 1, [&] {
        const TimedRun untraced = timedRun(profile, ref);

        TracedRun tr(profile, ref, kMaxReplayBlocks);
        const double t0 = wallNow();
        const SystemResults traced = tr.run();
        const double tracedWall = wallNow() - t0;
        tally.attempted += 2;
        tally.expect(resultsJson(traced) == resultsJson(untraced.results),
                     "traced_loop_matches_run",
                     "traced results differ from System::run()");
        tally.expect(tr.verifyMismatches() == 0 &&
                         tr.lateAliasRejects() == 0,
                     "traced_loop_output",
                     "wrong fill data or a late alias reject");

        const CodecReplay codec = replayCodec(ref.kind, tr.blocks());
        tally.expect(codec.roundTripErrors == 0, "codec_round_trip",
                     std::to_string(codec.roundTripErrors) +
                         " blocks did not decode to themselves");
        const ReplayTiming dram = replayDram(ref.dram, tr.dramCalls());

        Json j = layerMetrics(tr, traced, ref, codec, dram);
        j.add("sim.grid.worker_idle_frac", grid_idle_frac)
            .add("sim.ft.cpu_per_wall", fast.cpuPerWall)
            .add("sim.ft.barriers", fast.results.ftBarriers)
            .add("sim.ft.clock_skew_max", fast.results.ftClockSkewMax)
            .add("sim.ft.ambient_stall_cycles",
                 fast.results.dram.ambientStallCycles)
            .add("trace_overhead", ratio(tracedWall, untraced.wallS));
        emit("layer", j);
        emit("info", Json()
                         .add("traced_wall_s", tracedWall)
                         .add("untraced_wall_s", untraced.wallS)
                         .add("codec_replay_blocks", codec.encode.calls)
                         .add("dram_replayed_requests", dram.calls)
                         .add("dram_real_requests",
                              traced.dram.reads + traced.dram.writes)
                         .add("sim_digest",
                              digestOf(resultsJson(traced))));
    });
}

void
traceWorkload(const Workload &w, u64 seed, double seconds, Tally &tally)
{
    double idle = 0;
    if (w.grid) {
        const GridRun g = runGrid(w, seed);
        tally.attempted += g.results.size();
        double cellSum = 0;
        for (const double c : g.cellS)
            cellSum += c;
        idle = 1.0 - ratio(cellSum, g.wallS * g.jobs);
    }
    tracedPasses(WorkloadRegistry::byName(w.profile),
                 table1(w.kind, w.epochsPerCore, seed), seconds, idle,
                 tally);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1\n",
                 argv0);
    return 2;
}

int
benchMain(int argc, char **argv)
{
    const Workload *workload = nullptr;
    u64 seed = 0;
    u64 seconds = 10;
    bool trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        if (key == "--workload") {
            for (const Workload &w : kWorkloads)
                if (std::strcmp(w.name, value) == 0)
                    workload = &w;
            if (workload == nullptr)
                COP_FATAL(std::string("unknown workload ") + value);
        } else if (key == "--seed") {
            seed = parseU64(value, "--seed");
        } else if (key == "--seconds") {
            seconds = parsePositiveU64(value, "--seconds");
        } else if (key == "--trace") {
            trace = parseU64(value, "--trace") != 0;
        } else {
            return usage(argv[0]);
        }
    }
    if (workload == nullptr || argc % 2 == 0)
        return usage(argv[0]);

    emit("host", Json().addRaw("host", hostRecordJson()));
    Tally tally;
    const double budget = static_cast<double>(seconds);
    if (trace)
        traceWorkload(*workload, seed, budget, tally);
    else if (workload->grid)
        measureGrid(*workload, seed, budget, tally);
    else
        measureSystem(*workload, seed, budget, tally);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    emit("end", Json()
                    .add("attempted", tally.attempted)
                    .add("failed", tally.failed)
                    .add("peak_rss_mb",
                         static_cast<double>(ru.ru_maxrss) / 1024.0));
    return 0;
}

} // namespace
} // namespace copbench

int
main(int argc, char **argv)
{
    return copbench::benchMain(argc, argv);
}
