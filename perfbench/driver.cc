/**
 * @file
 * The benchmark driver: runs one workload repeatedly for a fixed host
 * time, checks every simulated run, and prints its metrics.
 *
 *   perfbench_driver --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> [--work-dir <dir>]
 *
 * Each iteration rebuilds everything from the seed -- server-model
 * generation, FOR bitmaps, the HDC pin plan -- and replays it, using
 * only the library's public calls. Host metrics are medians over the
 * untraced iterations. Simulated metrics come from the first; every
 * later iteration must reproduce its stats dumps byte for byte once
 * the volatile "# runtime:" / "# trace:" lines are stripped.
 *
 * With --trace 0 every iteration runs untraced and the end-to-end
 * metrics are printed. With --trace 1 untraced and traced iterations
 * alternate; the traced ones record spans around each layer call, the
 * per-layer metrics are printed, and the spans are written to
 * <work-dir>/spans-<workload>.jsonl.
 *
 * The last line of standard output is one JSON object: correct,
 * attempted, failed and metrics. The exit code is 1 when any run
 * failed a check.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "array/striping.hh"
#include "config/sweep_spec.hh"
#include "core/experiment.hh"
#include "core/sweep_driver.hh"
#include "hdc/hdc_planner.hh"
#include "spans.hh"
#include "stats_dump.hh"
#include "workload/server_models.hh"

using namespace dtsim;
using perfbench::Span;
using perfbench::StatMap;
using perfbench::Tracer;

namespace {

using Clock = std::chrono::steady_clock;

/** The paper's Table 2 FOR+HDC gain on Web at a 16 KB unit, in %. */
constexpr double kPaperWebGainPct = 47.0;

/** paper_gap_pp above this fails the fig07-web accuracy check. */
constexpr double kPaperGapLimitPp = 10.0;

/**
 * Worker threads of the fig07-web sweep. One, not two: on a shared
 * 4-vCPU host the two-worker replay's run-to-run spread was twice the
 * serial one's, because each worker contends with other tenants.
 */
constexpr unsigned kSweepJobs = 1;

/** One benchmark workload. */
struct WorkloadDef
{
    const char* name;
    WorkloadKind model;
    double scale;
    SystemKind system;
    HdcPolicy policy;
    std::uint64_t hdcBytesPerDisk;
    std::uint64_t unitBytes;
    bool sweep;  ///< The Figure 7 grid instead of a single run.
};

const WorkloadDef kWorkloads[] = {
    {"web-for-hdc", WorkloadKind::Web, 0.5, SystemKind::FOR,
     HdcPolicy::Oracle, 2 * kMiB, 16 * kKiB, false},
    {"file-segm", WorkloadKind::File, 0.1, SystemKind::Segm,
     HdcPolicy::Off, 0, 128 * kKiB, false},
    {"web-online", WorkloadKind::Web, 0.02, SystemKind::FOR,
     HdcPolicy::Online, 2 * kMiB, 16 * kKiB, false},
    // The sweep's system fields name its reported point.
    {"fig07-web", WorkloadKind::Web, 0.1, SystemKind::FOR,
     HdcPolicy::Oracle, 2 * kMiB, 16 * kKiB, true},
};

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

ServerModelParams
preset(WorkloadKind kind, double scale)
{
    switch (kind) {
      case WorkloadKind::Web: return webServerParams(scale);
      case WorkloadKind::Proxy: return proxyServerParams(scale);
      case WorkloadKind::File: return fileServerParams(scale);
      case WorkloadKind::Synthetic: break;
    }
    std::fprintf(stderr, "perfbench: not a server workload\n");
    std::exit(2);
}

StripingMap
stripingOf(const SystemConfig& sys)
{
    return StripingMap(logicalDisks(sys),
                       sys.stripeUnitBytes / sys.disk.blockSize,
                       sys.disk.totalBlocks());
}

/** Everything one iteration measured. */
struct Iteration
{
    bool traced = false;

    /** Host seconds: whole workload, before the first replay, replay. */
    double wallS = 0.0;
    double setupS = 0.0;
    double replayS = 0.0;

    std::uint64_t attempted = 0;  ///< Simulated runs (sweep points).
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    /** Summed over the iteration's runs. */
    std::uint64_t requests = 0;
    std::uint64_t events = 0;
    double runWallS = 0.0;  ///< The library's own replay timers.

    /** FNV-1a over every stripped dump, in run order. */
    std::uint64_t digest = 0;

    /** The reported run (fig07-web: 16 KB FOR+HDC). */
    RunResult reported;
    StatMap stats;

    TraceStats trace;
    std::uint64_t plannedPins = 0;
    std::uint64_t points = 0;
    double paperGapPp = -1.0;  ///< fig07-web only.
};

/**
 * Record `r`'s dump checks and totals into `it`; `bad` carries any
 * failure already found for this run. Returns the run's stats.
 */
StatMap
checkRun(Iteration& it, const std::string& label, const RunResult& r,
         const std::string& dump, std::uint64_t trace_records,
         std::vector<std::string> bad = {})
{
    ++it.attempted;
    const std::string stripped = perfbench::stripVolatile(dump);
    it.digest = perfbench::fnv1a(stripped, it.digest);
    StatMap stats = perfbench::parseStats(stripped);
    for (std::string& b : perfbench::checkIdentities(stats, trace_records))
        bad.push_back(std::move(b));
    if (r.requests != trace_records)
        bad.push_back("RunResult.requests == trace records");
    if (!bad.empty()) {
        ++it.failed;
        for (const std::string& b : bad)
            it.failures.push_back(label + ": " + b);
    }
    it.requests += r.requests;
    it.events += r.eventsFired;
    it.runWallS += r.wallSeconds;
    return stats;
}

/** One CLI-style run: generate, bitmaps, plan, replay, dump. */
Iteration
runSingle(const WorkloadDef& w, std::uint64_t seed, Tracer* tr, int run)
{
    SimulationConfig sim;
    sim.workload = w.model;
    sim.scale = w.scale;
    SystemConfig& sys = sim.system;
    sys.kind = w.system;
    sys.hdc.policy = w.policy;
    sys.hdc.budgetBytesPerDisk = w.hdcBytesPerDisk;
    sys.stripeUnitBytes = w.unitBytes;

    ServerModelParams params = preset(w.model, w.scale);
    params.seed = seed;
    sys.streams = params.streams;
    const std::uint64_t capacity =
        logicalDisks(sys) * sys.disk.totalBlocks();
    const StripingMap striping = stripingOf(sys);

    Iteration it;
    it.traced = tr != nullptr;
    const Clock::time_point t0 = Clock::now();
    Span root(tr, "iteration", run);

    ServerWorkload wl;
    {
        Span s(tr, "workload.gen", run);
        wl = makeServerWorkload(params, capacity);
    }
    std::vector<LayoutBitmap> bitmaps;
    if (sys.kind == SystemKind::FOR) {
        Span s(tr, "fs.bitmaps", run);
        bitmaps = wl.image->buildBitmaps(striping);
    }
    std::vector<ArrayBlock> pins;
    if (sys.hdc.enabled() && sys.hdc.policy == HdcPolicy::Oracle) {
        Span s(tr, "hdc.plan", run);
        pins = selectPinnedBlocks(wl.trace, striping,
                                  hdcBlocksPerDisk(sys));
    }
    const Clock::time_point t_setup = Clock::now();

    std::ostringstream dump;
    RunResult r;
    {
        Span s(tr, "core.run", run);
        Experiment e(sim);
        e.replay(wl.trace)
            .fsStats(wl.bufferCache)
            .header(renderConfigHeader(sim))
            .statsTo(StatsSink::stream(dump));
        if (!bitmaps.empty())
            e.bitmaps(bitmaps);
        if (!pins.empty())
            e.pins(pins);
        r = e.run();
    }
    const Clock::time_point t_end = Clock::now();

    {
        Span s(tr, "bench.check", run);
        it.stats = checkRun(it, w.name, r, dump.str(), wl.trace.size());
        it.reported = r;
        it.trace = computeStats(wl.trace);
        it.plannedPins = pins.size();
    }
    it.wallS = secondsBetween(t0, t_end);
    it.setupS = secondsBetween(t0, t_setup);
    it.replayS = secondsBetween(t_setup, t_end);
    return it;
}

/** The Figure 7 grid: units x {Segm, FOR} x HDC {0, 2 MiB}. */
std::vector<SweepPoint>
fig07Points(const WorkloadDef& w, const std::string& work_dir)
{
    SweepSpec spec;
    spec.base.workload = w.model;
    spec.base.scale = w.scale;
    SweepAxis units{"system.stripe_unit_bytes", {}};
    for (std::uint64_t kb : {4, 8, 16, 32, 64, 128, 192, 256})
        units.values.push_back(std::to_string(kb * kKiB));
    spec.axes.push_back(std::move(units));
    spec.axes.push_back({"system.kind", {"segm", "for"}});
    spec.axes.push_back({"system.hdc_bytes_per_disk",
                         {"0", std::to_string(2 * kMiB)}});

    std::string err;
    std::vector<SweepPoint> points = expandSweep(spec, err);
    if (points.empty()) {
        std::fprintf(stderr, "perfbench: sweep expansion failed: %s\n",
                     err.c_str());
        std::exit(2);
    }
    for (std::size_t i = 0; i < points.size(); ++i)
        points[i].cfg.output.statsOut =
            work_dir + "/fig07-p" + std::to_string(i) + ".txt";
    return points;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** One Figure 7 reproduction through SweepCache and runSweepPoints. */
Iteration
runSweep(const WorkloadDef& w, std::uint64_t seed,
         const std::string& work_dir, Tracer* tr, int run)
{
    std::vector<SweepPoint> points = fig07Points(w, work_dir);
    ServerModelParams params = preset(w.model, w.scale);
    params.seed = seed;
    const SystemConfig& base = points.front().cfg.system;
    const std::uint64_t capacity =
        logicalDisks(base) * base.disk.totalBlocks();

    // The sweep configuration has no server-model seed key, so the
    // cache's workload slot is created with the preset's seed here,
    // outside the timed region, and refilled below from --seed.
    SweepCache cache;
    BuiltWorkload& slot = cache.workload(points.front().cfg);

    Iteration it;
    it.traced = tr != nullptr;
    it.points = points.size();
    const Clock::time_point t0 = Clock::now();
    Span root(tr, "iteration", run);
    {
        Span build(tr, "sweep.build", run);
        {
            Span s(tr, "workload.gen", run);
            ServerWorkload wl = makeServerWorkload(params, capacity);
            slot.trace = std::move(wl.trace);
            slot.image = std::move(wl.image);
            slot.fsStats = wl.bufferCache;
            slot.hasFsStats = true;
            slot.modelStreams = params.streams;
        }
        for (const SweepPoint& p : points) {
            if (!p.feasible)
                continue;
            if (p.cfg.system.kind == SystemKind::FOR) {
                Span s(tr, "fs.bitmaps", run);
                cache.bitmaps(p.cfg);
            }
            if (p.cfg.system.hdc.enabled()) {
                Span s(tr, "hdc.plan", run);
                cache.pins(p.cfg);
            }
        }
    }
    const Clock::time_point t_setup = Clock::now();

    std::vector<RunResult> results;
    {
        Span s(tr, "sweep.run", run);
        results = runSweepPoints(points, cache, kSweepJobs);
    }
    const Clock::time_point t_end = Clock::now();

    {
        Span s(tr, "bench.check", run);
        const Trace& trace = slot.trace;
        // The reported point is the workload's own system (FOR + 2 MiB
        // HDC at 16 KB); its baseline is Segm without HDC at that unit.
        auto at = [&](SystemKind kind, bool hdc) {
            for (std::size_t i = 0; i < points.size(); ++i) {
                const SystemConfig& sys = points[i].cfg.system;
                if (sys.stripeUnitBytes == w.unitBytes &&
                    sys.kind == kind && sys.hdc.enabled() == hdc)
                    return i;
            }
            std::fprintf(stderr, "perfbench: reported point missing\n");
            std::exit(2);
        };
        const std::size_t reported = at(w.system, true);
        const std::size_t baseline = at(SystemKind::Segm, false);
        const double gain_pct =
            100.0 * (1.0 - static_cast<double>(results[reported].ioTime) /
                               static_cast<double>(results[baseline].ioTime));
        it.paperGapPp = std::abs(gain_pct - kPaperWebGainPct);
        std::vector<std::string> accuracy;
        if (it.paperGapPp > kPaperGapLimitPp)
            accuracy.push_back(
                "FOR+HDC gain over Segm " + std::to_string(gain_pct) +
                "% is more than " + std::to_string(kPaperGapLimitPp) +
                " pp from the paper's " +
                std::to_string(kPaperWebGainPct) + "%");

        std::vector<std::uint64_t> units_planned;
        for (std::size_t i = 0; i < points.size(); ++i) {
            const SweepPoint& p = points[i];
            const SystemConfig& sys = p.cfg.system;
            const std::string label =
                std::string(w.name) + " point " + std::to_string(i);
            if (!p.feasible) {
                ++it.attempted;
                ++it.failed;
                it.failures.push_back(label + ": infeasible: " +
                                      p.whyNot);
                continue;
            }
            StatMap stats = checkRun(
                it, label, results[i], readFile(p.cfg.output.statsOut),
                trace.size(),
                i == reported ? accuracy : std::vector<std::string>{});
            if (i == reported)
                it.stats = std::move(stats);
            if (sys.hdc.enabled() &&
                std::find(units_planned.begin(), units_planned.end(),
                          sys.stripeUnitBytes) == units_planned.end()) {
                units_planned.push_back(sys.stripeUnitBytes);
                it.plannedPins += cache.pins(p.cfg).size();
            }
        }
        it.reported = results[reported];
        it.trace = computeStats(trace);
    }
    it.wallS = secondsBetween(t0, t_end);
    it.setupS = secondsBetween(t0, t_setup);
    it.replayS = secondsBetween(t_setup, t_end);
    return it;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * (Q3 - Q1) / median, with quartiles computed like Python's
 * statistics.quantiles(v, n=4) (the "exclusive" method).
 */
double
relativeSpread(std::vector<double> v)
{
    const std::size_t ld = v.size();
    if (ld < 2)
        return 0.0;
    std::sort(v.begin(), v.end());
    const long m = static_cast<long>(ld) + 1;
    double q[3];
    for (long i = 1; i <= 3; ++i) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, static_cast<long>(ld) - 1);
        const long delta = i * m - j * 4;
        q[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                    v[j] * static_cast<double>(delta)) /
                   4.0;
    }
    const double med = median(v);
    return med > 0.0 ? (q[2] - q[0]) / med : 0.0;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** A printed metric: name, value, unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * The per-layer metrics of a traced run. Host times are the median,
 * over the traced iterations, of each layer's summed span self time;
 * model-side counts come from iteration 0's dump of the reported run.
 * `wall` holds the untraced iterations' wall times.
 */
std::vector<Metric>
perLayerMetrics(const WorkloadDef& def, const std::vector<Iteration>& iters,
                const Tracer& tracer, const std::vector<double>& wall)
{
    std::vector<std::map<std::string, double>> self;
    std::vector<double> traced_wall;
    for (std::size_t i = 0; i < iters.size(); ++i) {
        if (!iters[i].traced)
            continue;
        self.push_back(tracer.selfSeconds(static_cast<int>(i)));
        traced_wall.push_back(iters[i].wallS);
    }
    // The root span's own self time is wall time no layer span
    // claims.
    std::vector<double> unattributed;
    for (const perfbench::SpanRecord& s : tracer.spans())
        if (s.parent < 0)
            unattributed.push_back(
                100.0 * tracer.selfSeconds(s.run).at("iteration") /
                (static_cast<double>(s.endNs - s.startNs) * 1e-9));
    auto selfS = [&](std::initializer_list<const char*> names) {
        std::vector<double> v;
        for (const auto& m : self) {
            double s = 0.0;
            for (const char* n : names) {
                const auto f = m.find(n);
                s += f == m.end() ? 0.0 : f->second;
            }
            v.push_back(s);
        }
        return median(v);
    };
    const double untraced_med = median(wall);
    const double overhead =
        100.0 * (median(traced_wall) / untraced_med - 1.0);
    const double noise = 100.0 * relativeSpread(wall);
    const bool resolved = overhead > noise;
    std::printf("trace.overhead_pct %s: traced %.4f s vs untraced "
                "%.4f s median, %+.3f%% against an untraced spread "
                "of %.3f%%\n",
                resolved ? "resolved" : "unresolved",
                median(traced_wall), untraced_med, overhead, noise);

    const Iteration& first = iters.front();
    const StatMap& st = first.stats;
    auto sv = [&](const char* n) { return perfbench::stat(st, n); };
    const double events = static_cast<double>(first.events);
    return {
        {"workload.gen_s", selfS({"workload.gen"}), "s"},
        {"workload.records",
         static_cast<double>(first.trace.records), "count"},
        {"workload.blocks",
         static_cast<double>(first.trace.blocks), "count"},
        {"workload.write_frac", first.trace.writeRecordFraction,
         "ratio"},
        {"fs.read_hit_rate", sv("sim.fs.read_hit_rate"), "ratio"},
        {"fs.read_misses", sv("sim.fs.read_misses"), "count"},
        {"fs.write_merges", sv("sim.fs.write_merges"), "count"},
        {"fs.bitmaps_s", selfS({"fs.bitmaps"}), "s"},
        {"hdc.plan_s", selfS({"hdc.plan"}), "s"},
        {"hdc.planned_pins", static_cast<double>(first.plannedPins),
         "count"},
        {"hdc.online.replans", sv("sim.hdc.online.replans"), "count"},
        {"hdc.online.fast_replans", sv("sim.hdc.online.fast_replans"),
         "count"},
        {"hdc.online.pins", sv("sim.hdc.online.pins"), "count"},
        {"hdc.online.unpins", sv("sim.hdc.online.unpins"), "count"},
        {"core.run_s", selfS({"core.run", "sweep.run"}), "s"},
        {"core.requests", static_cast<double>(first.requests),
         "count"},
        {"sim.events", events, "count"},
        {"sim.ns_per_event",
         events > 0 ? first.runWallS * 1e9 / events : 0.0, "ns"},
        {"cache.hit_rate", sv("sim.cache.hit_rate"), "ratio"},
        {"cache.hdc_hit_rate", sv("sim.cache.hdc_hit_rate"), "ratio"},
        {"cache.hdc_hit_blocks", sv("sim.cache.hdc_hit_blocks"),
         "count"},
        {"cache.ra_hit_blocks", sv("sim.cache.ra_hit_blocks"),
         "count"},
        {"controller.spec_inserted",
         sv("sim.read_ahead.spec_inserted"), "count"},
        {"controller.spec_wasted", sv("sim.read_ahead.spec_wasted"),
         "count"},
        {"controller.ra_accuracy", sv("sim.read_ahead.accuracy"),
         "ratio"},
        {"controller.queue_ms", sv("sim.media.queue_ms"), "ms"},
        {"controller.sched_depth_mean",
         sv("sim.service.queue_depth.mean"), "count"},
        {"disk.media_accesses", sv("sim.media.accesses"), "count"},
        {"disk.seek_ms", sv("sim.media.seek_ms"), "ms"},
        {"disk.rotation_ms", sv("sim.media.rotation_ms"), "ms"},
        {"disk.transfer_ms", sv("sim.media.transfer_ms"), "ms"},
        {"bus.busy_ms", sv("sim.bus.busy_ms"), "ms"},
        {"bus.utilization", sv("sim.bus.utilization"), "ratio"},
        {"array.disk_utilization", sv("sim.disk_utilization"),
         "ratio"},
        {"array.hdc_flush_ms", sv("sim.hdc_flush_ms"), "ms"},
        // Everything under the sweep.build span.
        {"sweep.build_s",
         def.sweep ? selfS({"sweep.build", "workload.gen",
                             "fs.bitmaps", "hdc.plan"})
                    : 0.0,
         "s"},
        {"sweep.run_s", selfS({"sweep.run"}), "s"},
        {"sweep.points", static_cast<double>(first.points), "count"},
        {"bench.check_s", selfS({"bench.check"}), "s"},
        {"trace.overhead_pct", resolved ? overhead : noise, "%"},
        {"trace.overhead_resolved", resolved ? 1.0 : 0.0, "bool"},
        {"trace.unattributed_pct", median(unattributed), "%"},
        {"accuracy.paper_gap_pp", first.paperGapPp, "pp"},
    };
}

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver "
                 "--workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    bool seed_given = false;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir = ".";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char* v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            workload = v;
        } else if (a == "--seed") {
            seed = std::strtoull(v, &end, 10);
            seed_given = true;
        } else if (a == "--seconds") {
            seconds = std::strtod(v, &end);
        } else if (a == "--trace") {
            trace = std::string(v) == "1";
        } else if (a == "--work-dir") {
            work_dir = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
        if (end && *end != '\0')
            usage(("bad value for " + a).c_str());
    }

    const WorkloadDef* def = nullptr;
    for (const WorkloadDef& w : kWorkloads)
        if (workload == w.name)
            def = &w;
    if (!def)
        usage(("unknown workload '" + workload + "'").c_str());
    if (!seed_given)
        seed = preset(def->model, def->scale).seed;
    if (!(seconds > 0.0))
        usage("--seconds must be positive");

    // Untraced iterations only, or untraced and traced alternating;
    // at least two of each kind so every dump is reproduced once.
    Tracer tracer;
    std::vector<Iteration> iters;
    double peak_rss_mb = 0.0;
    const Clock::time_point start = Clock::now();
    const std::size_t min_iters = trace ? 4 : 2;
    while (iters.size() < min_iters ||
           secondsBetween(start, Clock::now()) < seconds) {
        const int run = static_cast<int>(iters.size());
        Tracer* tr = trace && run % 2 == 1 ? &tracer : nullptr;
        iters.push_back(def->sweep
                            ? runSweep(*def, seed, work_dir, tr, run)
                            : runSingle(*def, seed, tr, run));
        // Later iterations only add allocator fragmentation, which
        // depends on how many of them fit in --seconds.
        if (run == 0)
            peak_rss_mb = peakRssMb();
    }

    const Iteration& first = iters.front();
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    for (std::size_t i = 0; i < iters.size(); ++i) {
        const Iteration& it = iters[i];
        attempted += it.attempted;
        failed += it.failed;
        failures.insert(failures.end(), it.failures.begin(),
                        it.failures.end());
        if (it.digest != first.digest && it.failed == 0) {
            // Count the whole iteration: the digest cannot say which
            // of its runs diverged.
            failed += it.attempted;
            failures.push_back("iteration " + std::to_string(i) +
                               ": stats dumps differ from iteration 0");
        }
    }
    for (const std::string& f : failures)
        std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());

    auto collect = [&](bool traced, auto field) {
        std::vector<double> v;
        for (const Iteration& it : iters)
            if (it.traced == traced)
                v.push_back(field(it));
        return v;
    };
    const std::vector<double> wall =
        collect(false, [](const Iteration& it) { return it.wallS; });
    const std::vector<double> setup =
        collect(false, [](const Iteration& it) { return it.setupS; });
    const std::vector<double> rate =
        collect(false, [](const Iteration& it) {
            return static_cast<double>(it.requests) / it.replayS;
        });

    const RunResult& rep = first.reported;
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(first.digest));

    std::printf("workload %s  seed %llu  iterations %zu%s\n", def->name,
                static_cast<unsigned long long>(seed), iters.size(),
                trace ? " (untraced and traced alternating)" : "");
    for (std::size_t i = 0; i < iters.size(); ++i)
        std::printf("iteration %zu%s wall %.4f s setup %.4f s replay "
                    "%.4f s\n",
                    i, iters[i].traced ? " traced" : "", iters[i].wallS,
                    iters[i].setupS, iters[i].replayS);
    std::printf("model_digest %s\n", digest);
    std::printf("ops_attempted %llu\nops_failed %llu\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    if (def->sweep)
        std::printf("paper_gap_pp %.4f pp (vs the paper's published "
                    "Table 2 Web gain of %.0f%%)\n",
                    first.paperGapPp, kPaperWebGainPct);

    std::vector<Metric> metrics;
    if (!trace) {
        metrics = {
            {"wall_s", median(wall), "s"},
            {"setup_s", median(setup), "s"},
            {"replay_req_per_s", median(rate), "1/s"},
            {"peak_rss_mb", peak_rss_mb, "MB"},
            {"sim_io_time_s", toSeconds(rep.ioTime), "s"},
            {"sim_mean_latency_ms", rep.meanLatencyMs, "ms"},
        };
    } else {
        metrics = perLayerMetrics(*def, iters, tracer, wall);
        const std::string spans_path =
            work_dir + "/spans-" + def->name + ".jsonl";
        if (!tracer.writeJsonLines(spans_path)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         spans_path.c_str());
            return 2;
        }
        std::printf("spans %zu written to %s\n", tracer.spans().size(),
                    spans_path.c_str());
    }

    for (const Metric& m : metrics)
        std::printf("%s %s %s\n", m.name.c_str(),
                    jsonNumber(m.value).c_str(), m.unit.c_str());

    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return failed == 0 ? 0 : 1;
}
