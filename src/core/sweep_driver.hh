/**
 * @file
 * Configuration-driven experiment driver: turn SimulationConfigs /
 * expanded SweepSpec grids into built workloads, FOR bitmaps, HDC pin
 * plans, and parallel runs through Experiment::runAll().
 *
 * This is the layer that makes sweeps data-driven: the CLI's --sweep
 * and --system all modes expand to SweepPoints and run through
 * runSweepPoints(), and so does every figure and ablation grid of the
 * paper, shipped as a sweep file under examples/sweeps/. Workloads,
 * bitmaps, and pin plans are deduplicated across grid points (a
 * striping sweep builds its server workload once; a synthetic grid
 * whose axis changes the workload builds one per value), and every
 * run's outputs begin with its own effective-config header.
 */

#ifndef DTSIM_CORE_SWEEP_DRIVER_HH
#define DTSIM_CORE_SWEEP_DRIVER_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "config/sweep_spec.hh"
#include "core/runner.hh"
#include "fs/buffer_cache.hh"
#include "fs/file_layout.hh"
#include "hdc/hdc_planner.hh"

namespace dtsim {

/** A generated workload: the trace plus its file-system context. */
struct BuiltWorkload
{
    Trace trace;
    std::unique_ptr<FileSystemImage> image;

    /** Buffer-cache stats of generation (server models only). */
    BufferCacheStats fsStats;
    bool hasFsStats = false;

    /** The server model's concurrency (0 for synthetic). */
    unsigned modelStreams = 0;

    /**
     * The trace's miss ranking, shared by the pin plans of every
     * striping. SweepCache::pins() builds it on first use;
     * runSweepPoints() drops it before replay.
     */
    std::unique_ptr<MissRanking> ranking;
};

/**
 * Build the workload `sim` asks for: the Section 6.2 synthetic
 * workload or one of the Section 6.3 server models at workload.scale,
 * sized to the configured array capacity.
 */
BuiltWorkload buildWorkload(const SimulationConfig& sim);

/**
 * Resolve system.streams = 0 to the workload's own concurrency: the
 * server model's stream count when `built` is a server workload,
 * else SystemConfig's default (synthetic workloads, and replayed
 * traces, which pass no `built`). An explicit count is left alone.
 * Applied before running so the effective-config dump records the
 * concurrency that actually ran.
 */
void resolveStreams(SimulationConfig& sim, const BuiltWorkload* built);

/**
 * Workload/bitmap/pin-plan cache shared across the runs of a sweep.
 * Keyed on the workload- and layout-relevant parameter groups, so
 * grid points differing only in controller policy share one build.
 * Not thread-safe; build happens on the calling thread (generation
 * is deterministic, so results never depend on sharing).
 */
class SweepCache
{
  public:
    /** The built workload for `sim` (built on first use). */
    BuiltWorkload& workload(const SimulationConfig& sim);

    /** Per-disk FOR bitmaps for `sim`'s striping (may be empty when
     *  the workload has no file-system image). */
    const std::vector<LayoutBitmap>&
    bitmaps(const SimulationConfig& sim);

    /** The HDC warm-start pin plan for `sim`. */
    const std::vector<ArrayBlock>& pins(const SimulationConfig& sim);

    /** Free the workloads' miss rankings (pins() rebuilds one if a
     *  new plan needs it). */
    void dropRankings();

  private:
    std::string workloadKey(const SimulationConfig& sim);

    std::map<std::string, std::unique_ptr<BuiltWorkload>> workloads_;
    std::map<std::string, std::unique_ptr<std::vector<LayoutBitmap>>>
        bitmaps_;
    std::map<std::string, std::unique_ptr<std::vector<ArrayBlock>>>
        pins_;
};

/**
 * Run every feasible point of an expanded sweep through
 * Experiment::runAll() (thread count: `jobs`, 0 = DTSIM_JOBS). Results come
 * back in point order; infeasible points get a default RunResult and
 * a warn(). Each point's cfg gets resolveStreams() applied, its
 * output files are taken from cfg.output, and its stats/trace outputs
 * begin with the point's own effective-config header.
 *
 * Results are bit-identical to running each point alone: jobs only
 * share the immutable trace/bitmap/pin inputs.
 */
std::vector<RunResult> runSweepPoints(std::vector<SweepPoint>& points,
                                      SweepCache& cache,
                                      unsigned jobs = 0);

/** Convenience overload with a throwaway cache. */
std::vector<RunResult> runSweepPoints(std::vector<SweepPoint>& points,
                                      unsigned jobs = 0);

} // namespace dtsim

#endif // DTSIM_CORE_SWEEP_DRIVER_HH
