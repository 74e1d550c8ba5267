/**
 * @file
 * Shared helpers for the figure/table reproduction benches: standard
 * workload scales, aligned table printing, and the Segm baseline
 * normalization the paper uses.
 *
 * The figure sweeps (stripingSweep / hdcSweep) are data-driven: they
 * build a config-layer SweepSpec (the same grids ship as .conf files
 * under examples/sweeps/ for dtsim_cli --sweep) and execute it through
 * the core sweep driver, so a figure bench and the equivalent config
 * file produce identical numbers.
 */

#ifndef DTSIM_BENCH_BENCH_UTIL_HH
#define DTSIM_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "config/sweep_spec.hh"
#include "core/runner.hh"
#include "core/sweep_driver.hh"
#include "hdc/hdc_planner.hh"
#include "workload/server_models.hh"
#include "workload/synthetic.hh"

namespace dtsim {
namespace bench {

/**
 * Request-count scale for the real-workload models, overridable with
 * the DTSIM_BENCH_SCALE environment variable (checked parse; junk is
 * fatal). The default keeps the full bench suite within minutes;
 * EXPERIMENTS.md records the value used.
 */
double workloadScale();

/** Print a header line like "=== Figure 7: ... ===". */
void printHeader(const std::string& title);

/** Print one aligned row of a results table. */
void printRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths);

/** Format helpers. */
std::string fmt(double v, int precision = 3);
std::string fmtPct(double v, int precision = 1);

/**
 * Run one system variant over a trace, wiring bitmaps and the HDC pin
 * plan automatically.
 */
RunResult runSystem(SystemKind kind, std::uint64_t hdc_bytes,
                    const SystemConfig& base, const Trace& trace,
                    const std::vector<LayoutBitmap>& bitmaps);

/**
 * One system variant in a runSystems() batch: `base` with `kind` and
 * `hdcBytes` applied on top, run over `trace`/`bitmaps` (both must
 * outlive the call).
 */
struct SystemSpec
{
    SystemKind kind = SystemKind::Segm;
    std::uint64_t hdcBytes = 0;
    SystemConfig base;
    const Trace* trace = nullptr;
    const std::vector<LayoutBitmap>* bitmaps = nullptr;

    /**
     * Observability options forwarded to the run (off by default).
     * Give each spec its own output paths; see Experiment::runAll()
     * for the thread-safety expectations.
     */
    RunOptions opts;
};

/**
 * Run a batch of system variants as replay Experiments
 * (core/experiment.hh) through Experiment::runAll(), deriving
 * the Pinned-policy HDC pin plan per spec like runSystem(). Results
 * come back in spec order and are bit-identical to calling
 * runSystem() sequentially; thread count follows DTSIM_JOBS.
 */
std::vector<RunResult> runSystems(const std::vector<SystemSpec>& specs);

/**
 * The Figure 7/9/11 grid for one server workload: striping unit
 * {4..256} KB x {Segm, FOR} x HDC {0, 2 MiB}. examples/sweeps/
 * ships the same grids as .conf files.
 */
SweepSpec stripingSweepSpec(WorkloadKind workload, double scale);

/** The Figure 8/10/12 grid: HDC size {0..3072} KB x {Segm, FOR}. */
SweepSpec hdcSweepSpec(WorkloadKind workload, double scale,
                       std::uint64_t stripe_unit_bytes);

/**
 * A striping-unit sweep over one server workload: reproduces the
 * Figure 7/9/11 shape (I/O time vs unit size for Segm, Segm+HDC,
 * FOR, FOR+HDC).
 */
void stripingSweep(WorkloadKind workload, double scale,
                   const std::string& figure_title);

/**
 * An HDC-size sweep over one server workload at a fixed striping
 * unit: reproduces the Figure 8/10/12 shape. FOR points whose HDC +
 * bitmap budget exceeds the controller cache come back infeasible and
 * print "-" (the paper's FOR+HDC curves stop early too).
 */
void hdcSweep(WorkloadKind workload, double scale,
              std::uint64_t stripe_unit_bytes,
              const std::string& figure_title);

} // namespace bench
} // namespace dtsim

#endif // DTSIM_BENCH_BENCH_UTIL_HH
