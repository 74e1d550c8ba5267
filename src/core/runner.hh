/**
 * @file
 * Run-level option and result types.
 *
 * The run engine itself is internal (core/run_impl.hh); all user code
 * goes through the Experiment facade (core/experiment.hh), which owns
 * input derivation (through a SweepCache), bitmap/pin attachment, and
 * output wiring, and is the only run path of the CLI, the sweep
 * driver, the benches and perfbench.
 */

#ifndef DTSIM_CORE_RUNNER_HH
#define DTSIM_CORE_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "controller/layout_bitmap.hh"
#include "core/replay.hh"
#include "core/system.hh"
#include "fault/fault_config.hh"
#include "fs/buffer_cache.hh"
#include "stats/stats_sink.hh"
#include "stats/trace.hh"
#include "workload/trace.hh"

namespace dtsim {

/**
 * Host wall-clock seconds of the phases that run before replay
 * (Experiment::prepare). A phase that was skipped, or whose output
 * the caller supplied, reads 0. Volatile: reported only on the
 * "# runtime:" line.
 */
struct PrepTimes
{
    double genSeconds = 0.0;      ///< Workload generation.
    double bitmapsSeconds = 0.0;  ///< FOR layout bitmaps.
    double planSeconds = 0.0;     ///< Oracle HDC pin planning.

    /** The three phases together. */
    double
    seconds() const
    {
        return genSeconds + bitmapsSeconds + planSeconds;
    }
};

/** Observability options of one run (all off by default). */
struct RunOptions
{
    /**
     * Destination of the stats dump and periodic/fault snapshots: a
     * file, a borrowed ostream (tests), or disabled (the default).
     */
    StatsSink stats;

    /** Write one sampled record per completed request ("" = off). */
    std::string tracePath;

    /**
     * Sampling probability and RNG seed of the trace
     * (stats/trace.hh). The defaults record every request.
     */
    TraceConfig trace;

    /**
     * Pre-rendered effective-config header (renderConfigHeader in
     * config/sim_config.hh) written at the top of every stats dump
     * and trace file so results are self-describing and reload via
     * `--config`. Experiment::prepare() renders it when the caller
     * set none.
     */
    std::string configHeader;

    /**
     * Emit a periodic stats snapshot every this many ticks of
     * simulated time (0 = final dump only). Snapshots go to the
     * stats file/stream, each flushed once written so `tail -f`
     * follows a running simulation; the snapshot events ride the
     * simulation event queue as front events at absolute ticks. The
     * reported HDC flush window can stretch by up to one interval;
     * all other results are unaffected.
     */
    Tick statsIntervalTicks = 0;

    /**
     * Buffer-cache statistics of the workload generator, included in
     * the dump under sim.fs when set (the cache itself ran during
     * trace generation, not during replay).
     */
    const BufferCacheStats* fsStats = nullptr;

    /** Preparation timings to report with the run (RunResult::prep). */
    PrepTimes prep;

    /** True when any stats output destination is configured. */
    bool
    wantsStats() const
    {
        return stats.enabled();
    }
};

/** Results of one simulated run. */
struct RunResult
{
    /** Total I/O time: completion of the last trace record. */
    Tick ioTime = 0;

    /** Extra time spent flushing dirty HDC blocks at the end. */
    Tick flushTime = 0;

    /**
     * Full simulated run time, ioTime + flushTime. The elapsed-based
     * rates below use this denominator; when comparing systems whose
     * end-of-run flush work differs, compare the elapsed-based fields
     * against each other, not against the ioTime-based ones.
     */
    Tick elapsed = 0;

    std::uint64_t requests = 0;
    std::uint64_t blocks = 0;

    /** Accesses fully served by the HDC store / total accesses. */
    double hdcHitRate = 0.0;

    /** Accesses served without a media access / total accesses. */
    double cacheHitRate = 0.0;

    /**
     * Mean per-disk media utilization over `elapsed` (ioTime +
     * flushTime). The flush denominator is deliberate: media busy
     * time includes end-of-run HDC flush work, so dividing by ioTime
     * alone could report utilization > 1.
     */
    double diskUtilization = 0.0;

    /**
     * Delivered throughput in MB/s over ioTime only (blocks moved /
     * ioTime). This matches the paper's figures, which report I/O
     * time to the last trace completion and exclude the artificial
     * end-of-run flush. Use throughputElapsedMBps when the flush cost
     * should count.
     */
    double throughputMBps = 0.0;

    /** Delivered throughput in MB/s over `elapsed`. */
    double throughputElapsedMBps = 0.0;

    double meanLatencyMs = 0.0;

    /** Online-policy activity (all zero under other policies). */
    std::uint64_t onlineMisses = 0;       ///< Miss observations.
    std::uint64_t onlineReplans = 0;      ///< Re-plan epochs run.
    std::uint64_t onlineFastReplans = 0;  ///< Phase-change epochs.
    std::uint64_t onlinePins = 0;         ///< pin_blk deltas issued.
    std::uint64_t onlineUnpins = 0;       ///< unpin_blk deltas issued.

    /** Raw aggregate controller counters. */
    ControllerStats agg;

    /** Aggregate read-ahead accuracy counters. */
    RaCounters ra;

    /** Trace records written (0 when tracing was off). */
    std::uint64_t traceRecords = 0;

    /** Completions the trace.sample draw skipped (deterministic for
     * a given seed and configuration). */
    std::uint64_t traceSampledOut = 0;

    /** Fault/recovery counters (all zero when faults are off). */
    FaultCounters faults;

    /**
     * Events fired by the run's event queue. A measure of kernel
     * work, not a simulation result, so it never enters deterministic
     * output.
     */
    std::uint64_t eventsFired = 0;

    /**
     * Host wall-clock seconds of the simulation phase (replay +
     * flush), excluding system construction and workload building;
     * reported as replay_ms. Volatile by nature; never part of
     * deterministic output.
     */
    double wallSeconds = 0.0;

    /**
     * Host wall-clock seconds of the whole run: the preparation phases
     * (prep) plus runTrace() from system construction through writing
     * the stats dump; reported as total_ms. The dump's own runtime
     * line is stamped once the rest of the dump is rendered, so it
     * leaves out only the final write to the sink. Volatile like
     * wallSeconds.
     */
    double totalSeconds = 0.0;

    /**
     * Of wallSeconds, the host seconds spent inside the online HDC
     * policy's re-plans (0 when no online policy ran). Volatile like
     * wallSeconds.
     */
    double replanSeconds = 0.0;

    /** Host wall-clock seconds of the phases before replay. */
    PrepTimes prep;

    /**
     * The whole process's peak resident set (getrusage ru_maxrss) in
     * MB when the run finished: a high-water mark of everything the
     * process did up to then, not of this run alone. Volatile like
     * wallSeconds.
     */
    double processPeakRssMb = 0.0;

    /** eventsFired / wallSeconds (0 when wall time was unmeasurably
     * small). */
    double
    eventsPerSec() const
    {
        return wallSeconds > 0.0
            ? static_cast<double>(eventsFired) / wallSeconds
            : 0.0;
    }
};

/**
 * Convenience: the per-disk HDC capacity in blocks implied by a
 * config (0 when HDC is off).
 */
std::uint64_t hdcBlocksPerDisk(const SystemConfig& cfg);

} // namespace dtsim

#endif // DTSIM_CORE_RUNNER_HH
