/**
 * @file
 * Tracked end-to-end model throughput benchmark. Where
 * kernel_throughput tracks the event kernel in isolation, this bench
 * measures the full simulation stack the way experiments actually run
 * it:
 *
 *  1. replay throughput (simulated requests/sec and wall-clock) of the
 *     Web, Proxy, and File server workloads on the paper's headline
 *     FOR + 2 MiB HDC system, with workload generation excluded so the
 *     number isolates the model hot paths (caches, scheduler, HDC
 *     store, mechanism), and
 *  2. cold end-to-end wall-clock of the full fig07 web striping sweep
 *     (workload build + bitmaps + pin plans + all 32 grid points),
 *     which is the unit of work a figure reproduction costs.
 *
 * Results go to BENCH_model.json in the working directory (override
 * with DTSIM_BENCH_OUT). The *_seed fields are the numbers this bench
 * produced at the default scale immediately before the slab/flat-table
 * model optimization landed, so the tracked JSON carries its own
 * baseline; they are compared (and speedups emitted) only when the
 * bench runs at that reference scale. EXPERIMENTS.md documents every
 * field and how to reproduce the numbers.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "core/sweep.hh"
#include "core/sweep_driver.hh"
#include "sim/host_threads.hh"
#include "sim/logging.hh"

using namespace dtsim;

namespace {

/** The scale the embedded seed baselines were recorded at. */
constexpr double kSeedScale = 0.2;

/**
 * Repeats per measurement (min taken): single-shot wall clock on a
 * shared box is noisy; the minimum over a few runs is the standard
 * noise-robust estimator for CPU-bound work. Override with
 * DTSIM_BENCH_REPEATS.
 */
unsigned
benchRepeats()
{
    if (const char* env = std::getenv("DTSIM_BENCH_REPEATS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<unsigned>(v);
    }
    return 3;
}

/**
 * Seed baselines: wall-clock seconds at kSeedScale on the commit
 * immediately before the model hot-path optimization landed, measured
 * with this same harness built in a worktree of that commit
 * (DTSIM_JOBS=1, Release). Seed and optimized binaries ran
 * interleaved on the same machine and each value is the minimum over
 * the interleaved rounds, so both sides see the same noise floor.
 */
struct SeedBaseline
{
    const char* workload;
    double replayWallS;
};

constexpr SeedBaseline kSeedReplay[] = {
    {"web", 0.161},
    {"proxy", 0.108},
    {"file", 1.943},
};

constexpr double kSeedFig07WallS = 9.488;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** One timed replay of workload `kind` on FOR + 2 MiB HDC. */
struct ReplayResult
{
    std::uint64_t requests = 0;
    double wallS = 0.0;
};

ReplayResult
measureReplay(WorkloadKind kind, double scale)
{
    SweepSpec spec;
    spec.base.workload = kind;
    spec.base.scale = scale;
    spec.base.system.kind = SystemKind::FOR;
    spec.base.system.hdc.budgetBytesPerDisk = 2 * kMiB;

    std::string err;
    std::vector<SweepPoint> points = expandSweep(spec, err);
    if (points.size() != 1)
        fatal("replay expansion failed: %s", err.c_str());

    // Warm the cache so workload generation, bitmap construction, and
    // the pin plan stay outside the timed region: this row isolates
    // replay (the model hot paths), not trace synthesis.
    SweepCache cache;
    cache.workload(points[0].cfg);
    cache.bitmaps(points[0].cfg);
    cache.pins(points[0].cfg);

    ReplayResult r;
    for (unsigned rep = 0; rep < benchRepeats(); ++rep) {
        const auto start = std::chrono::steady_clock::now();
        const std::vector<RunResult> results =
            runSweepPoints(points, cache, 1);
        const double s = secondsSince(start);
        if (rep == 0 || s < r.wallS)
            r.wallS = s;
        r.requests = results[0].requests;
    }
    return r;
}

/**
 * Cold end-to-end fig07 web sweep: build everything, run the grid.
 * Measures the tracing-off grid and, when `traced_s` is non-null,
 * the same grid with a trace.sample=0.01 binary trace per point (one
 * file per point, removed afterwards) — the always-on configuration
 * production runs pay for. The two variants run back-to-back within
 * each repeat, and `traced_over` reports the overhead as the minimum
 * of the per-repeat paired ratios: each ratio compares two runs that
 * shared the same host-noise environment, so slow drift on a shared
 * box cancels instead of being charged to (or credited against)
 * tracing. `traced_s` still reports the plain minimum wall clock.
 */
double
measureFig07Sweep(double scale, unsigned jobs, std::size_t* n_points,
                  double* traced_s = nullptr,
                  double* traced_over = nullptr, double sample = 0.01)
{
    const SweepSpec spec =
        bench::stripingSweepSpec(WorkloadKind::Web, scale);
    std::string err;
    std::vector<SweepPoint> points = expandSweep(spec, err);
    if (points.empty())
        fatal("fig07 expansion failed: %s", err.c_str());
    *n_points = points.size();

    std::vector<SweepPoint> traced_points;
    std::vector<std::string> trace_paths;
    if (traced_s) {
        traced_points = points;
        for (std::size_t i = 0; i < traced_points.size(); ++i) {
            trace_paths.push_back("bench_fig07_trace_p" +
                                  std::to_string(i) + ".bin");
            traced_points[i].cfg.output.trace = trace_paths.back();
            traced_points[i].cfg.output.traceCfg.sample = sample;
        }
    }

    double best = 0.0;
    double best_traced = 0.0;
    double best_ratio = 0.0;
    for (unsigned rep = 0; rep < benchRepeats(); ++rep) {
        double plain_s = 0.0;
        {
            const auto start = std::chrono::steady_clock::now();
            SweepCache cache;  // fresh: build work stays timed
            runSweepPoints(points, cache, jobs);
            plain_s = secondsSince(start);
            if (rep == 0 || plain_s < best)
                best = plain_s;
        }
        if (traced_s) {
            const auto start = std::chrono::steady_clock::now();
            SweepCache cache;
            runSweepPoints(traced_points, cache, jobs);
            const double s = secondsSince(start);
            if (rep == 0 || s < best_traced)
                best_traced = s;
            const double ratio = s / plain_s;
            if (rep == 0 || ratio < best_ratio)
                best_ratio = ratio;
        }
    }
    for (const std::string& p : trace_paths)
        std::remove(p.c_str());
    if (traced_s)
        *traced_s = best_traced;
    if (traced_over)
        *traced_over = (best_ratio - 1.0) * 100.0;
    return best;
}

} // namespace

int
main()
{
    bench::printHeader("Model throughput (end-to-end simulation)");

    const double scale = bench::workloadScale();
    const unsigned jobs = hostThreads();
    const unsigned repeats = benchRepeats();
    const bool at_seed_scale = scale == kSeedScale;
    std::printf("min of %u repeat(s) per measurement\n", repeats);

    // --- 1. Replay throughput per server workload. ---
    const WorkloadKind kinds[] = {WorkloadKind::Web, WorkloadKind::Proxy,
                                  WorkloadKind::File};
    std::vector<ReplayResult> replays;
    for (std::size_t i = 0; i < 3; ++i) {
        const ReplayResult r = measureReplay(kinds[i], scale);
        replays.push_back(r);
        std::printf("%-6s FOR+HDC replay: %8llu requests  %7.3f s  "
                    "%10.0f req/s\n",
                    kSeedReplay[i].workload,
                    static_cast<unsigned long long>(r.requests),
                    r.wallS,
                    static_cast<double>(r.requests) / r.wallS);
    }

    // --- 2 & 3. Cold end-to-end fig07 web sweep, tracing off and
    // with a sampled trace (trace.sample=0.01, the "leave it on"
    // configuration docs/OBSERVABILITY.md recommends; the acceptance
    // bar for the pipeline is <2% overhead on this sweep). ---
    std::size_t n_points = 0;
    double fig07_traced_s = 0.0;
    double overhead_pct = 0.0;
    const double fig07_s = measureFig07Sweep(
        scale, jobs, &n_points, &fig07_traced_s, &overhead_pct);
    std::printf("fig07 web sweep: %zu points  %u job(s)  %.3f s\n",
                n_points, jobs, fig07_s);
    if (at_seed_scale && kSeedFig07WallS > 0.0)
        std::printf("fig07 speedup vs seed: %.2fx\n",
                    kSeedFig07WallS / fig07_s);
    std::printf("fig07 web sweep, trace.sample=0.01: %.3f s "
                "(overhead %+.2f%%, min paired ratio)\n",
                fig07_traced_s, overhead_pct);

    // --- Write the tracked trajectory point. ---
    const char* out_env = std::getenv("DTSIM_BENCH_OUT");
    const std::string out = out_env ? out_env : "BENCH_model.json";
    FILE* f = std::fopen(out.c_str(), "w");
    if (!f) {
        warn("cannot write %s", out.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n  \"scale\": %g,\n  \"jobs\": %u,\n"
                 "  \"repeats\": %u,\n",
                 scale, jobs, repeats);
    std::fprintf(f, "  \"systems\": [\n");
    for (std::size_t i = 0; i < replays.size(); ++i) {
        const ReplayResult& r = replays[i];
        std::fprintf(f,
                     "    {\"workload\": \"%s\", \"system\": "
                     "\"for+hdc\", \"requests\": %llu,\n"
                     "     \"replay_wall_s\": %.3f, "
                     "\"sim_requests_per_sec\": %.0f",
                     kSeedReplay[i].workload,
                     static_cast<unsigned long long>(r.requests),
                     r.wallS,
                     static_cast<double>(r.requests) / r.wallS);
        if (at_seed_scale && kSeedReplay[i].replayWallS > 0.0) {
            std::fprintf(f,
                         ",\n     \"replay_wall_s_seed\": %.3f, "
                         "\"speedup\": %.3f",
                         kSeedReplay[i].replayWallS,
                         kSeedReplay[i].replayWallS / r.wallS);
        }
        std::fprintf(f, "}%s\n", i + 1 < replays.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"fig07_web_sweep\": {\"points\": %zu, \"jobs\": "
                 "%u, \"wall_s\": %.3f",
                 n_points, jobs, fig07_s);
    if (at_seed_scale && kSeedFig07WallS > 0.0)
        std::fprintf(f, ", \"wall_s_seed\": %.3f, \"speedup\": %.3f",
                     kSeedFig07WallS, kSeedFig07WallS / fig07_s);
    std::fprintf(f, "},\n");
    std::fprintf(f,
                 "  \"fig07_traced\": {\"trace_sample\": 0.01, "
                 "\"wall_s\": %.3f, \"overhead_pct\": %.2f}\n}\n",
                 fig07_traced_s, overhead_pct);
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
