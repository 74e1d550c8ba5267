/**
 * @file
 * Property sweep across the full system configuration matrix: every
 * (system kind, scheduler, HDC budget, striping unit) combination
 * must complete a mixed read/write trace with consistent accounting.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/runner.hh"
#include "experiment_replay.hh"
#include "hdc/hdc_planner.hh"
#include "workload/synthetic.hh"

namespace dtsim {
namespace {

using MatrixParam =
    std::tuple<SystemKind, SchedulerKind, std::uint64_t,
               std::uint64_t>;

class SystemMatrix : public ::testing::TestWithParam<MatrixParam>
{
};

TEST_P(SystemMatrix, CompletesWithConsistentAccounting)
{
    const auto [kind, sched, hdc_kb, unit_kb] = GetParam();

    SystemConfig cfg;
    cfg.kind = kind;
    cfg.scheduler = sched;
    cfg.hdc.budgetBytesPerDisk = hdc_kb * kKiB;
    cfg.stripeUnitBytes = unit_kb * kKiB;
    cfg.disks = 4;
    cfg.streams = 24;
    cfg.workers = 8;

    SyntheticParams sp;
    sp.numFiles = 20000;
    sp.fileSizeBytes = 16 * kKiB;
    sp.numRequests = 300;
    sp.writeProb = 0.2;
    sp.zipfAlpha = 0.6;
    const SyntheticWorkload w =
        makeSynthetic(sp, cfg.disks * cfg.disk.totalBlocks());
    const TraceStats ts = computeStats(w.trace);

    StripingMap striping(cfg.disks,
                         cfg.stripeUnitBytes / cfg.disk.blockSize,
                         cfg.disk.totalBlocks());
    const std::vector<LayoutBitmap> bitmaps =
        w.image->buildBitmaps(striping);

    std::vector<ArrayBlock> pinned;
    const std::vector<ArrayBlock>* pp = nullptr;
    if (cfg.hdc.budgetBytesPerDisk > 0) {
        pinned = selectPinnedBlocks(w.trace, striping,
                                    hdcBlocksPerDisk(cfg));
        pp = &pinned;
    }

    const RunResult r = test::replayTrace(cfg, w.trace, &bitmaps, pp);

    // Everything completed.
    EXPECT_EQ(r.requests, ts.records);
    EXPECT_EQ(r.blocks, ts.blocks);
    EXPECT_GT(r.ioTime, 0u);

    // Controller accounting is self-consistent. Array splitting may
    // create more controller accesses than trace records.
    EXPECT_GE(r.agg.reads + r.agg.writes, ts.records);
    EXPECT_EQ(r.agg.readBlocks + r.agg.writeBlocks, ts.blocks);
    EXPECT_LE(r.agg.cacheHitRequests, r.agg.reads + r.agg.writes);
    EXPECT_LE(r.agg.hdcHitRequests, r.agg.cacheHitRequests);

    // Media work never exceeds what was demanded plus read-ahead,
    // and every serviced block was either a hit or a media block.
    EXPECT_LE(r.agg.mediaBlocks,
              r.agg.readBlocks + r.agg.writeBlocks);
    EXPECT_EQ(r.agg.mediaBlocks + r.agg.raHitBlocks +
                  r.agg.hdcHitBlocks,
              r.agg.readBlocks + r.agg.writeBlocks);

    // runTrace() panics unless every disk satisfies its conservation
    // identities (accountingErrors), so each grid point has already
    // checked them per disk; their array-wide sums hold too. The
    // grid injects no faults, so there are no rebuild jobs.
    EXPECT_EQ(r.agg.reads + r.agg.writes + r.agg.flushWrites,
              r.agg.cacheHitRequests + r.agg.mediaAccesses);
    EXPECT_EQ(r.agg.rebuildJobs, 0u);
    EXPECT_GE(r.ra.specInserted, r.ra.specUsed + r.ra.specWasted);

    // Timing components sum to the media busy time.
    EXPECT_EQ(r.agg.seekTime + r.agg.rotTime + r.agg.xferTime,
              r.agg.mediaBusy);

    // Rates are valid.
    EXPECT_GE(r.hdcHitRate, 0.0);
    EXPECT_LE(r.hdcHitRate, 1.0);
    EXPECT_GE(r.cacheHitRate, 0.0);
    EXPECT_LE(r.cacheHitRate, 1.0);
    EXPECT_GT(r.diskUtilization, 0.0);
    EXPECT_LE(r.diskUtilization, 1.0);

    // With no HDC budget there can be no HDC hits.
    if (cfg.hdc.budgetBytesPerDisk == 0) {
        EXPECT_EQ(r.agg.hdcHitRequests, 0u);
        EXPECT_EQ(r.agg.hdcHitBlocks, 0u);
    }

    // No-RA must not fetch speculative blocks.
    if (kind == SystemKind::NoRA) {
        EXPECT_EQ(r.agg.readAheadBlocks, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SystemMatrix,
    ::testing::Combine(
        ::testing::Values(SystemKind::Segm, SystemKind::Block,
                          SystemKind::NoRA, SystemKind::FOR),
        ::testing::Values(SchedulerKind::FCFS, SchedulerKind::LOOK,
                          SchedulerKind::CLOOK, SchedulerKind::SSTF),
        ::testing::Values(0, 1024),
        ::testing::Values(32, 128)));

} // namespace
} // namespace dtsim
