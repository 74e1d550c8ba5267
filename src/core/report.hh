/**
 * @file
 * gem5-style statistics reporting for simulation results: fills a
 * stats::StatGroup hierarchy from a RunResult and prints it as
 * aligned `name value # description` lines.
 */

#ifndef DTSIM_CORE_REPORT_HH
#define DTSIM_CORE_REPORT_HH

#include <ostream>

#include "core/runner.hh"
#include "core/system.hh"
#include "stats/service_stats.hh"

namespace dtsim {

/**
 * Print a full statistics report for one run.
 *
 * @param os Output stream.
 * @param cfg The system that ran.
 * @param result Its results.
 */
void printReport(std::ostream& os, const SystemConfig& cfg,
                 const RunResult& result);

/**
 * Write the full --stats-out dump: run-level results, configuration,
 * per-request service histograms, per-disk component counters, bus
 * counters, and (when given) the workload generator's buffer-cache
 * stats. Every line is documented in docs/METRICS.md. The dump is
 * rendered before its "# runtime:" line is stamped, so that line's
 * total_ms is result.totalSeconds plus the rendering.
 *
 * @param os Output stream.
 * @param cfg The system that ran.
 * @param result Its results.
 * @param array The array that ran (component counter source).
 * @param svc Per-request histograms (nullptr = omit).
 * @param fs_stats Workload buffer-cache stats (nullptr = omit).
 */
void writeStatsDump(std::ostream& os, const SystemConfig& cfg,
                    const RunResult& result, const DiskArray& array,
                    const stats::ServiceStats* svc,
                    const BufferCacheStats* fs_stats);

/**
 * Write a mid-run snapshot (used by --stats-interval and fault
 * events): the current tick plus component and histogram counters,
 * delimited by a "# snapshot @tick" header line, then flush `os` so
 * a `tail -f` reader sees the snapshot while the run goes on.
 */
void writeStatsSnapshot(std::ostream& os, const DiskArray& array,
                        const stats::ServiceStats* svc, Tick now);

} // namespace dtsim

#endif // DTSIM_CORE_REPORT_HH
