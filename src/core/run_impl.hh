/**
 * @file
 * The internal run engine behind the Experiment facade.
 *
 * Not part of the public surface: only experiment.cc (run() and the
 * runAll() worker pool) may call runTrace() directly. Everything
 * else -- CLI, sweeps, benches, perfbench, tests -- goes through
 * Experiment (core/experiment.hh), which prepares the inputs and the
 * config header and forwards here.
 */

#ifndef DTSIM_CORE_RUN_IMPL_HH
#define DTSIM_CORE_RUN_IMPL_HH

#include <vector>

#include "controller/layout_bitmap.hh"
#include "core/runner.hh"

namespace dtsim {

/**
 * Run one experiment: build the system, replay the trace, and
 * collect results.
 *
 * @param cfg System under test.
 * @param trace Disk trace to replay.
 * @param opts Observability and execution options.
 * @param bitmaps Per-disk FOR bitmaps; required when cfg.kind is FOR,
 *        ignored otherwise. Must match cfg's disk count and striping.
 * @param pinned Logical blocks to pin before replay (HDC warm start);
 *        ignored when the HDC budget is zero.
 */
RunResult runTrace(const SystemConfig& cfg, const Trace& trace,
                   const RunOptions& opts = {},
                   const std::vector<LayoutBitmap>* bitmaps = nullptr,
                   const std::vector<ArrayBlock>* pinned = nullptr);

} // namespace dtsim

#endif // DTSIM_CORE_RUN_IMPL_HH
