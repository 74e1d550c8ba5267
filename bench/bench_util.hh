/**
 * @file
 * Shared helpers for the figure/table benches that are not replay
 * grids (Figures 1-2, Table 1, the validation micro-benchmark): the
 * standard workload scale and aligned table printing. The paper's
 * replay grids (Figures 3-12, Table 2 and the ablations) are sweep
 * files under examples/sweeps/, run with dtsim_cli --sweep.
 */

#ifndef DTSIM_BENCH_BENCH_UTIL_HH
#define DTSIM_BENCH_BENCH_UTIL_HH

#include <string>
#include <vector>

namespace dtsim {
namespace bench {

/**
 * Request-count scale for the real-workload models, overridable with
 * the DTSIM_BENCH_SCALE environment variable (checked parse; junk is
 * fatal). The default keeps the full bench suite within minutes;
 * EXPERIMENTS.md records the value used.
 */
double workloadScale();

/** Print a header line like "=== Table 2: ... ===". */
void printHeader(const std::string& title);

/** Print one aligned row of a results table. */
void printRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths);

/** Format helpers. */
std::string fmt(double v, int precision = 3);
std::string fmtPct(double v, int precision = 1);

} // namespace bench
} // namespace dtsim

#endif // DTSIM_BENCH_BENCH_UTIL_HH
