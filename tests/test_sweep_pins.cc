/**
 * @file
 * Sweep pin plans: every pin list SweepCache::pins() hands a sweep
 * point must equal, entry for entry and in order, what
 * selectPinnedBlocks() computes for that point alone -- whatever the
 * striping unit, the disk count, the budget, and the order in which
 * the sweep asks for its units.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/runner.hh"
#include "core/sweep_driver.hh"
#include "hdc/hdc_planner.hh"

namespace dtsim {
namespace {

/** Striping units of the Figure 7 grid, in a shuffled order. */
constexpr std::uint64_t kShuffledUnits[] = {
    65536, 4096, 262144, 16384, 196608, 8192, 131072, 32768};

class SweepPins : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SweepPins, EqualSelectPinnedBlocksForEveryFig07Unit)
{
    const unsigned disks = GetParam();

    SimulationConfig sim;
    sim.workload = WorkloadKind::Web;
    sim.scale = 0.01;
    sim.system.disks = disks;

    SweepCache cache;
    const Trace& trace = cache.workload(sim).trace;
    std::uint64_t trace_blocks = 0;
    for (const TraceRecord& r : trace)
        trace_blocks += r.count;
    ASSERT_GT(trace_blocks, 0u);

    // 1 block, 512 blocks (the fig07 2 MiB budget), and more blocks
    // than any one disk's distinct blocks, so every disk runs dry.
    const std::uint64_t block = sim.system.disk.blockSize;
    const std::uint64_t budgets[] = {block, 512 * block,
                                     (trace_blocks + 1) * block};

    // Interleave budgets and units so neither is requested in order.
    std::size_t checked = 0;
    for (std::size_t k = 0; k < 3; ++k) {
        for (std::size_t u = 0; u < std::size(kShuffledUnits); ++u) {
            sim.system.stripeUnitBytes = kShuffledUnits[u];
            sim.system.hdc.budgetBytesPerDisk = budgets[(u + k) % 3];

            const std::vector<ArrayBlock>& got = cache.pins(sim);

            const SystemConfig& sys = sim.system;
            const StripingMap striping(
                disks, sys.stripeUnitBytes / sys.disk.blockSize,
                sys.disk.totalBlocks());
            const std::vector<ArrayBlock> want = selectPinnedBlocks(
                trace, striping, hdcBlocksPerDisk(sys));
            ASSERT_EQ(got, want)
                << "disks " << disks << " unit " << sys.stripeUnitBytes
                << " budget " << sys.hdc.budgetBytesPerDisk;
            EXPECT_FALSE(got.empty());
            ++checked;
        }
    }
    EXPECT_EQ(checked, 24u);
}

INSTANTIATE_TEST_SUITE_P(Disks, SweepPins,
                         ::testing::Values(1u, 3u, 8u));

} // namespace
} // namespace dtsim
