/**
 * @file
 * Parallel sweep runner: execute a batch of independent runTrace()
 * experiments across a thread pool.
 *
 * Every paper figure is a sweep of runs that differ only in their
 * SystemConfig (striping unit, HDC budget, system kind, ...). Each
 * run owns its own EventQueue and DiskArray and only reads the shared
 * Trace/bitmap/pin inputs, so running jobs concurrently is safe and
 * the results are bit-identical to executing them one by one.
 */

#ifndef DTSIM_CORE_SWEEP_HH
#define DTSIM_CORE_SWEEP_HH

#include <vector>

#include "core/runner.hh"

namespace dtsim {

/** One independent experiment in a sweep. */
struct SweepJob
{
    SystemConfig cfg;

    /** Trace to replay; must outlive runSweep(). */
    const Trace* trace = nullptr;

    /**
     * Per-disk FOR bitmaps (required when cfg.kind is FOR, ignored
     * otherwise); must outlive runSweep().
     */
    const std::vector<LayoutBitmap>* bitmaps = nullptr;

    /** HDC warm-start pin set; must outlive runSweep(). */
    const std::vector<ArrayBlock>* pinned = nullptr;

    /**
     * Observability options of this job. Each job writes its own
     * stats/trace files, so give distinct paths when enabling output
     * on more than one job; a stream-backed StatsSink, if set, must
     * be safe to write from the worker thread running the job (jobs
     * never share a stream unless the caller points them at the same
     * one).
     */
    RunOptions opts;
};

/**
 * Run every job and return results in job order.
 *
 * Jobs are dispatched to a pool of `threads` worker threads (0 means
 * hostThreads(): DTSIM_JOBS, else the hardware concurrency). Each job
 * is fully independent, so results are bit-identical regardless of the
 * thread count; with one thread the jobs run inline on the calling
 * thread.
 *
 * If a job throws (e.g. a misconfigured system), the first exception
 * in job order is rethrown on the calling thread after all workers
 * finish.
 */
std::vector<RunResult> runSweep(const std::vector<SweepJob>& jobs,
                                unsigned threads = 0);

/**
 * Sum the raw controller counters of a sweep's results. Each job's
 * counters were aggregated inside its own run, so this total is
 * independent of the thread count the sweep ran with.
 */
ControllerStats aggregateSweepStats(const std::vector<RunResult>& results);

/** Sum the read-ahead accuracy counters of a sweep's results. */
RaCounters aggregateSweepRa(const std::vector<RunResult>& results);

} // namespace dtsim

#endif // DTSIM_CORE_SWEEP_HH
