/**
 * @file
 * Cross-parameter validation tests: every rule in validateConfig()
 * fires with the offending keys named, defaults validate cleanly, and
 * multiple violations are reported together.
 */

#include <gtest/gtest.h>

#include "config/sim_config.hh"

using namespace dtsim;

namespace {

/** First validation error, or "" when the config is valid. */
std::string
firstError(const SimulationConfig& sim)
{
    const std::vector<std::string> errs = validateConfig(sim);
    return errs.empty() ? std::string() : errs.front();
}

TEST(ConfigValidate, DefaultsAreValid)
{
    SimulationConfig sim;
    EXPECT_EQ(firstError(sim), "");

    sim.workload = WorkloadKind::Web;
    EXPECT_EQ(firstError(sim), "");
}

TEST(ConfigValidate, OnlineHdcKnobs)
{
    SimulationConfig sim;
    sim.system.hdc.policy = HdcPolicy::Online;
    sim.system.hdc.budgetBytesPerDisk = kMiB;
    EXPECT_EQ(firstError(sim), "");

    sim.system.hdc.sketchRows = 0;
    EXPECT_NE(firstError(sim).find("hdc.sketch_rows"),
              std::string::npos);
    sim.system.hdc.sketchRows = 4;

    sim.system.hdc.sketchCols = 0;
    EXPECT_NE(firstError(sim).find("hdc.sketch_cols"),
              std::string::npos);
    sim.system.hdc.sketchCols = 16384;

    sim.system.hdc.candidateBlocks = 0;
    EXPECT_NE(firstError(sim).find("hdc.candidate_blocks"),
              std::string::npos);
    sim.system.hdc.candidateBlocks = 65536;

    sim.system.hdc.replanIntervalTicks = 0;
    EXPECT_NE(firstError(sim).find("hdc.replan_interval_ticks"),
              std::string::npos);
    sim.system.hdc.replanIntervalTicks = kMsec;

    sim.system.hdc.churnThreshold = 1.5;
    EXPECT_NE(firstError(sim).find("hdc.churn_threshold"),
              std::string::npos);
    sim.system.hdc.churnThreshold = 0.5;
    EXPECT_EQ(firstError(sim), "");

    // The online knobs are free-form while the policy is off/oracle.
    sim.system.hdc.policy = HdcPolicy::Oracle;
    sim.system.hdc.sketchRows = 0;
    EXPECT_EQ(firstError(sim), "");
}

TEST(ConfigValidate, OnlineHdcIndexWidths)
{
    // The candidate pool uses 32-bit slot indices and caches 32-bit
    // sketch columns; wider knobs are refused, not truncated.
    constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
    SimulationConfig sim;
    sim.system.hdc.policy = HdcPolicy::Online;
    sim.system.hdc.budgetBytesPerDisk = kMiB;

    sim.system.hdc.candidateBlocks = k32 - 1;
    EXPECT_EQ(firstError(sim), "");
    sim.system.hdc.candidateBlocks = k32;
    std::string err = firstError(sim);
    EXPECT_NE(err.find("hdc.candidate_blocks (4294967296)"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("2^32"), std::string::npos) << err;
    sim.system.hdc.candidateBlocks = ~std::uint64_t{0};
    EXPECT_NE(firstError(sim).find("hdc.candidate_blocks"),
              std::string::npos);
    sim.system.hdc.candidateBlocks = 65536;

    // Columns are bounded by the sketch's cell limit (below).
    sim.system.hdc.sketchCols = k32 + 1;
    err = firstError(sim);
    EXPECT_NE(err.find("hdc.sketch_cols (4294967297)"), std::string::npos)
        << err;
    sim.system.hdc.sketchCols = 65536;

    // Oracle runs never build the pool.
    sim.system.hdc.policy = HdcPolicy::Oracle;
    sim.system.hdc.candidateBlocks = k32;
    sim.system.hdc.sketchCols = k32 + 1;
    EXPECT_EQ(firstError(sim), "");
}

TEST(ConfigValidate, OnlineHdcSketchCellLimit)
{
    // rows x cols is bounded by kMaxSketchCells (2^28 counters, 1 GiB):
    // 2^32 columns at the default 4 rows must be refused here, not
    // passed on to a 64 GiB allocation.
    SimulationConfig sim;
    sim.system.hdc.policy = HdcPolicy::Online;
    sim.system.hdc.budgetBytesPerDisk = kMiB;
    ASSERT_EQ(sim.system.hdc.sketchRows, 4u);

    sim.system.hdc.sketchCols = std::uint64_t{1} << 32;
    std::string err = firstError(sim);
    EXPECT_NE(err.find("hdc.sketch_rows (4)"), std::string::npos) << err;
    EXPECT_NE(err.find("hdc.sketch_cols (4294967296)"), std::string::npos)
        << err;
    EXPECT_NE(err.find("2^28"), std::string::npos) << err;

    // At the limit is fine; one column past it is not.
    sim.system.hdc.sketchCols = kMaxSketchCells / 4;
    EXPECT_EQ(firstError(sim), "");
    sim.system.hdc.sketchCols = kMaxSketchCells / 4 + 1;
    EXPECT_NE(firstError(sim).find("hdc.sketch_cols"), std::string::npos);

    // The rows count as much as the columns.
    sim.system.hdc.sketchRows = 1;
    sim.system.hdc.sketchCols = kMaxSketchCells;
    EXPECT_EQ(firstError(sim), "");
    sim.system.hdc.sketchRows = 2;
    err = firstError(sim);
    EXPECT_NE(err.find("hdc.sketch_rows (2)"), std::string::npos) << err;

    // A product that would overflow 64 bits is still refused.
    sim.system.hdc.sketchRows = ~0u;
    sim.system.hdc.sketchCols = ~std::uint64_t{0};
    EXPECT_NE(firstError(sim).find("2^28"), std::string::npos);

    // Oracle runs never build the sketch.
    sim.system.hdc.policy = HdcPolicy::Oracle;
    EXPECT_EQ(firstError(sim), "");
}

TEST(ConfigValidate, OnlineHdcSketchRowLimit)
{
    // Every candidate caches its counter in each sketch row inside a
    // fixed-size record, so the rows are bounded on their own: 2^20
    // rows of 256 columns is exactly 2^28 counters, which the cell
    // limit accepts, yet would ask 4 MiB per candidate.
    SimulationConfig sim;
    sim.system.hdc.policy = HdcPolicy::Online;
    sim.system.hdc.budgetBytesPerDisk = kMiB;

    sim.system.hdc.sketchRows = kMaxSketchRows;
    EXPECT_EQ(firstError(sim), "");
    sim.system.hdc.sketchRows = kMaxSketchRows + 1;
    std::string err = firstError(sim);
    EXPECT_NE(err.find("hdc.sketch_rows (9)"), std::string::npos) << err;
    EXPECT_NE(err.find("hdc.candidate_blocks (65536)"), std::string::npos)
        << err;

    sim.system.hdc.sketchRows = 1u << 20;
    sim.system.hdc.sketchCols = 256;
    ASSERT_EQ(std::uint64_t{sim.system.hdc.sketchRows} *
                  sim.system.hdc.sketchCols,
              kMaxSketchCells);
    err = firstError(sim);
    EXPECT_NE(err.find("hdc.sketch_rows (1048576)"), std::string::npos)
        << err;
    EXPECT_NE(err.find("at most 8"), std::string::npos) << err;

    // Oracle runs never build the pool.
    sim.system.hdc.policy = HdcPolicy::Oracle;
    EXPECT_EQ(firstError(sim), "");
}

TEST(ConfigValidate, StripeUnitMustBeBlockMultiple)
{
    SimulationConfig sim;
    sim.system.stripeUnitBytes = 4096 + 512;
    const std::string err = firstError(sim);
    EXPECT_NE(err.find("system.stripe_unit_bytes"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("disk.block_bytes"), std::string::npos) << err;

    sim.system.stripeUnitBytes = 0;
    EXPECT_NE(firstError(sim), "");

    sim.system.stripeUnitBytes = 8 * 4096;
    EXPECT_EQ(firstError(sim), "");
}

TEST(ConfigValidate, HdcMustLeaveCacheMemory)
{
    SimulationConfig sim;

    // Segm: the HDC region alone must stay under the usable cache.
    sim.system.hdc.budgetBytesPerDisk = sim.system.disk.usableCacheBytes();
    EXPECT_NE(firstError(sim).find("hdc.budget_bytes_per_disk"),
              std::string::npos);

    // FOR additionally charges the layout bitmap, so a budget that
    // fits under Segm can be infeasible under FOR.
    const std::uint64_t usable = sim.system.disk.usableCacheBytes();
    const std::uint64_t bitmap = sim.system.disk.bitmapBytes();
    ASSERT_GT(usable, bitmap);
    // Rounded up to whole blocks, so the budget is a legal one that
    // still exceeds what FOR leaves.
    const std::uint64_t block = sim.system.disk.blockSize;
    sim.system.hdc.budgetBytesPerDisk =
        (usable - bitmap + block - 1) / block * block;
    ASSERT_EQ(sim.system.hdc.budgetBytesPerDisk, 3055616u);
    sim.system.kind = SystemKind::Segm;
    EXPECT_EQ(firstError(sim), "");
    sim.system.kind = SystemKind::FOR;
    const std::string err = firstError(sim);
    EXPECT_NE(err.find("FOR layout bitmap"), std::string::npos) << err;
}

TEST(ConfigValidate, HdcBudgetMustBeWholeBlocks)
{
    SimulationConfig sim;
    // A sub-block budget would leave a 0-block region that still
    // charges HDC lookups; a ragged one would lose its remainder.
    for (std::uint64_t bytes : {std::uint64_t{1024}, std::uint64_t{6000}}) {
        sim.system.hdc.budgetBytesPerDisk = bytes;
        const std::string err = firstError(sim);
        EXPECT_NE(err.find("hdc.budget_bytes_per_disk"), std::string::npos)
            << err;
        EXPECT_NE(err.find("disk.block_bytes"), std::string::npos) << err;
    }
    sim.system.hdc.budgetBytesPerDisk = 8192;
    EXPECT_EQ(firstError(sim), "");
    // With the HDC off the budget is unused and not checked.
    sim.system.hdc.budgetBytesPerDisk = 6000;
    sim.system.hdc.policy = HdcPolicy::Off;
    EXPECT_EQ(firstError(sim), "");
}

TEST(ConfigValidate, MirroringNeedsEvenDisks)
{
    SimulationConfig sim;
    sim.system.mirrored = true;
    sim.system.disks = 7;
    EXPECT_NE(firstError(sim).find("system.mirrored"),
              std::string::npos);
    sim.system.disks = 8;
    EXPECT_EQ(firstError(sim), "");
}

TEST(ConfigValidate, RepairNeedsKill)
{
    // A repair with no kill has no disk to repair; without a kill the
    // fault.* group is not even printed, so the dump would not show
    // the ignored key.
    SimulationConfig sim;
    sim.system.fault.repairAtTicks = 5000;
    const std::string err = firstError(sim);
    EXPECT_NE(err.find("fault.repair_at_ticks"), std::string::npos)
        << err;
    EXPECT_NE(err.find("fault.kill_at_ticks"), std::string::npos) << err;

    sim.system.mirrored = true;
    sim.system.fault.killAtTicks = 1000;
    EXPECT_EQ(firstError(sim), "");
}

TEST(ConfigValidate, KillKnobsNeedKill)
{
    // Like a lone repair, these knobs act only on a killed disk, and
    // the dump elides the fault.* group without a kill.
    SimulationConfig base;
    base.system.mirrored = true;
    const auto errorFor = [&](void (*set)(FaultConfig&)) {
        SimulationConfig sim = base;
        set(sim.system.fault);
        const std::string err = firstError(sim);
        sim.system.fault.killAtTicks = 1000;
        EXPECT_EQ(firstError(sim), "");
        return err;
    };
    const std::string disk =
        errorFor([](FaultConfig& f) { f.killDisk = 3; });
    EXPECT_NE(disk.find("fault.kill_disk needs fault.kill_at_ticks"),
              std::string::npos)
        << disk;
    const std::string blocks =
        errorFor([](FaultConfig& f) { f.rebuildBlocks = 7; });
    EXPECT_NE(blocks.find("fault.rebuild_blocks needs "
                          "fault.kill_at_ticks"),
              std::string::npos)
        << blocks;
    const std::string chunk =
        errorFor([](FaultConfig& f) { f.rebuildChunkBlocks = 64; });
    EXPECT_NE(chunk.find("fault.rebuild_chunk_blocks needs "
                         "fault.kill_at_ticks"),
              std::string::npos)
        << chunk;

    // All three at once: one error each.
    SimulationConfig sim = base;
    sim.system.fault.killDisk = 3;
    sim.system.fault.rebuildBlocks = 7;
    sim.system.fault.rebuildChunkBlocks = 64;
    EXPECT_EQ(validateConfig(sim).size(), 3u);
}

TEST(ConfigValidate, KillNeedsMirroring)
{
    SimulationConfig sim;
    sim.system.fault.killAtTicks = 1000;
    const std::string err = firstError(sim);
    EXPECT_NE(err.find("fault.kill_at_ticks"), std::string::npos) << err;
    EXPECT_NE(err.find("system.mirrored"), std::string::npos) << err;

    sim.system.mirrored = true;
    EXPECT_EQ(firstError(sim), "");
}

TEST(ConfigValidate, KillDiskMustExist)
{
    SimulationConfig sim;
    sim.system.mirrored = true;
    sim.system.disks = 8;
    sim.system.fault.killAtTicks = 1000;
    sim.system.fault.killDisk = 8;
    const std::string err = firstError(sim);
    EXPECT_NE(err.find("fault.kill_disk (8)"), std::string::npos) << err;
    EXPECT_NE(err.find("8 system.disks"), std::string::npos) << err;

    sim.system.fault.killDisk = 7;
    EXPECT_EQ(firstError(sim), "");
}

TEST(ConfigValidate, RepairMustFollowKill)
{
    SimulationConfig sim;
    sim.system.mirrored = true;
    sim.system.fault.killAtTicks = 1000;
    for (Tick repair : {Tick(1000), Tick(999)}) {
        sim.system.fault.repairAtTicks = repair;
        EXPECT_NE(firstError(sim).find("fault.repair_at_ticks must be "
                                       "after fault.kill_at_ticks"),
                  std::string::npos)
            << repair;
    }
    sim.system.fault.repairAtTicks = 1001;
    EXPECT_EQ(firstError(sim), "");
}

TEST(ConfigValidate, RebuildChunkMustBePositive)
{
    SimulationConfig sim;
    sim.system.mirrored = true;
    sim.system.fault.killAtTicks = 1000;
    sim.system.fault.rebuildChunkBlocks = 0;
    EXPECT_NE(firstError(sim).find("fault.rebuild_chunk_blocks"),
              std::string::npos);
    sim.system.fault.rebuildChunkBlocks = 1;
    EXPECT_EQ(firstError(sim), "");
}

TEST(ConfigValidate, SyntheticRanges)
{
    SimulationConfig sim;
    sim.synthetic.writeProb = 1.5;
    EXPECT_NE(firstError(sim).find("synthetic.write_prob"),
              std::string::npos);

    sim.synthetic.writeProb = 0.5;
    sim.synthetic.blockSize = 8192;
    EXPECT_NE(firstError(sim).find("synthetic.block_bytes"),
              std::string::npos);

    // Server workloads skip the synthetic checks entirely.
    sim.workload = WorkloadKind::File;
    EXPECT_EQ(firstError(sim), "");

    sim.scale = 0.0;
    EXPECT_NE(firstError(sim).find("workload.scale"),
              std::string::npos);
}

TEST(ConfigValidate, ScaleMustFitJobIds)
{
    // Job ids are 32-bit: web fits up to about scale 2500, file 450,
    // proxy 5700. A scale far past that would also overflow the
    // request count itself.
    SimulationConfig sim;
    sim.workload = WorkloadKind::Web;
    sim.scale = 2000;
    EXPECT_EQ(firstError(sim), "");
    sim.scale = 3000;
    EXPECT_NE(firstError(sim).find("workload.scale"), std::string::npos);

    sim.workload = WorkloadKind::File;
    sim.scale = 400;
    EXPECT_EQ(firstError(sim), "");
    sim.scale = 500;
    EXPECT_NE(firstError(sim).find("workload.scale"), std::string::npos);

    sim.workload = WorkloadKind::Proxy;
    sim.scale = 5000;
    EXPECT_EQ(firstError(sim), "");
    sim.scale = 1e300;
    EXPECT_NE(firstError(sim).find("workload.scale"), std::string::npos);

    // The synthetic workload ignores the scale.
    sim.workload = WorkloadKind::Synthetic;
    EXPECT_EQ(firstError(sim), "");
}

TEST(ConfigValidate, ReportsEveryViolationAtOnce)
{
    SimulationConfig sim;
    sim.system.disks = 0;
    sim.system.disk.rpm = 0;
    sim.system.stripeUnitBytes = 3;
    const std::vector<std::string> errs = validateConfig(sim);
    EXPECT_GE(errs.size(), 3u);
}

TEST(ConfigValidate, DegenerateDiskGeometry)
{
    SimulationConfig sim;
    sim.system.disk.rpm = 0;
    sim.system.disk.cacheBytes = sim.system.disk.cacheReservedBytes;
    const std::vector<std::string> errs = validateConfig(sim);
    bool saw_rpm = false, saw_cache = false;
    for (const std::string& e : errs) {
        saw_rpm = saw_rpm || e.find("disk.rpm") != std::string::npos;
        saw_cache =
            saw_cache || e.find("disk.cache_bytes") != std::string::npos;
    }
    EXPECT_TRUE(saw_rpm);
    EXPECT_TRUE(saw_cache);
}

TEST(ConfigValidate, ZeroBlockSizeUnderFor)
{
    // The FOR bitmap's size divides by the block size; validation
    // must report the zero, not divide by it.
    SimulationConfig sim;
    sim.system.kind = SystemKind::FOR;
    sim.system.disk.blockSize = 0;
    EXPECT_NE(firstError(sim).find("disk.block_bytes"),
              std::string::npos);
}

} // namespace
