/** @file End-to-end tests of the experiment runner (system variants). */

#include <gtest/gtest.h>

#include "array/disk_array.hh"
#include "core/runner.hh"
#include "core/system.hh"
#include "experiment_replay.hh"
#include "hdc/hdc_planner.hh"
#include "workload/synthetic.hh"

namespace dtsim {
namespace {

struct Workbench
{
    SystemConfig base;
    SyntheticWorkload w;
    std::vector<LayoutBitmap> bitmaps;

    explicit Workbench(std::uint64_t file_kb = 16,
                       std::uint64_t requests = 400,
                       double zipf = 0.4, double writes = 0.0)
    {
        base.disks = 4;
        base.streams = 32;
        base.workers = 8;
        base.stripeUnitBytes = 128 * kKiB;

        // Keep the footprint far above the aggregate controller
        // cache so accidental read-ahead coverage stays realistic.
        SyntheticParams sp;
        sp.numFiles = 50000;
        sp.fileSizeBytes = file_kb * kKiB;
        sp.numRequests = requests;
        sp.zipfAlpha = zipf;
        sp.writeProb = writes;
        w = makeSynthetic(sp,
                          base.disks * base.disk.totalBlocks());

        StripingMap striping(base.disks,
                             base.stripeUnitBytes /
                                 base.disk.blockSize,
                             base.disk.totalBlocks());
        bitmaps = w.image->buildBitmaps(striping);
    }

    RunResult
    run(SystemKind kind, std::uint64_t hdc_bytes = 0)
    {
        SystemConfig cfg = base;
        cfg.kind = kind;
        cfg.hdc.budgetBytesPerDisk = hdc_bytes;
        std::vector<ArrayBlock> pinned;
        const std::vector<ArrayBlock>* pp = nullptr;
        if (hdc_bytes > 0) {
            StripingMap striping(cfg.disks,
                                 cfg.stripeUnitBytes /
                                     cfg.disk.blockSize,
                                 cfg.disk.totalBlocks());
            pinned = selectPinnedBlocks(w.trace, striping,
                                        hdcBlocksPerDisk(cfg));
            pp = &pinned;
        }
        return test::replayTrace(cfg, w.trace, &bitmaps, pp);
    }
};

TEST(Runner, AllSystemsCompleteTheTrace)
{
    Workbench wb;
    for (SystemKind k : {SystemKind::Segm, SystemKind::Block,
                         SystemKind::NoRA, SystemKind::FOR}) {
        const RunResult r = wb.run(k);
        EXPECT_GT(r.ioTime, 0u) << systemKindName(k);
        EXPECT_EQ(r.requests, computeStats(wb.w.trace).records);
        EXPECT_GT(r.throughputMBps, 0.0);
    }
}

TEST(Runner, ForBeatsSegmOnSmallFiles)
{
    Workbench wb(16, 800);
    const RunResult segm = wb.run(SystemKind::Segm);
    const RunResult forr = wb.run(SystemKind::FOR);
    // The paper's headline: ~40% I/O time reduction for 16 KB files.
    EXPECT_LT(forr.ioTime, segm.ioTime * 80 / 100);
}

TEST(Runner, ForMatchesSegmOnSegmentSizedFiles)
{
    Workbench wb(128, 300);
    const RunResult segm = wb.run(SystemKind::Segm);
    const RunResult forr = wb.run(SystemKind::FOR);
    const double ratio = static_cast<double>(forr.ioTime) /
                         static_cast<double>(segm.ioTime);
    EXPECT_NEAR(ratio, 1.0, 0.1);
}

TEST(Runner, NoRaBeatsBlindOnTinyFiles)
{
    Workbench wb(4, 800);
    const RunResult segm = wb.run(SystemKind::Segm);
    const RunResult nora = wb.run(SystemKind::NoRA);
    EXPECT_LT(nora.ioTime, segm.ioTime);
}

TEST(Runner, HdcImprovesSkewedWorkload)
{
    Workbench wb(16, 1500, 1.0);
    const RunResult segm = wb.run(SystemKind::Segm);
    const RunResult hdc = wb.run(SystemKind::Segm, 2 * kMiB);
    EXPECT_GT(hdc.hdcHitRate, 0.05);
    EXPECT_LT(hdc.ioTime, segm.ioTime);
}

TEST(Runner, HdcHitRateZeroWithoutPins)
{
    Workbench wb;
    const RunResult r = wb.run(SystemKind::FOR);
    EXPECT_DOUBLE_EQ(r.hdcHitRate, 0.0);
}

TEST(Runner, FlushTimeReportedForDirtyHdc)
{
    Workbench wb(16, 1500, 1.0, 0.5);
    const RunResult r = wb.run(SystemKind::Segm, 2 * kMiB);
    // Writes hit pinned blocks; the end-of-run flush takes time.
    EXPECT_GT(r.agg.hdcHitBlocks, 0u);
    EXPECT_GT(r.flushTime, 0u);
}

TEST(Runner, DeterministicAcrossRuns)
{
    Workbench wb;
    const RunResult a = wb.run(SystemKind::FOR);
    const RunResult b = wb.run(SystemKind::FOR);
    EXPECT_EQ(a.ioTime, b.ioTime);
    EXPECT_EQ(a.agg.mediaAccesses, b.agg.mediaAccesses);
}

TEST(Runner, UtilizationWithinBounds)
{
    Workbench wb;
    const RunResult r = wb.run(SystemKind::Segm);
    EXPECT_GT(r.diskUtilization, 0.0);
    EXPECT_LE(r.diskUtilization, 1.0);
}

TEST(SystemConfig, LabelsAndPresets)
{
    SystemConfig cfg;
    cfg.kind = SystemKind::FOR;
    EXPECT_EQ(cfg.label(), "FOR");
    cfg.hdc.budgetBytesPerDisk = kMiB;
    EXPECT_EQ(cfg.label(), "FOR+HDC");

    EXPECT_EQ(cfg.controllerConfig().org, CacheOrg::Block);
    EXPECT_EQ(cfg.controllerConfig().readAhead, ReadAheadMode::FOR);

    cfg.kind = SystemKind::Segm;
    EXPECT_EQ(cfg.controllerConfig().org, CacheOrg::Segment);
    EXPECT_EQ(cfg.controllerConfig().readAhead,
              ReadAheadMode::Blind);

    cfg.kind = SystemKind::NoRA;
    EXPECT_EQ(cfg.controllerConfig().readAhead,
              ReadAheadMode::None);

    cfg.kind = SystemKind::Block;
    EXPECT_EQ(cfg.controllerConfig().org, CacheOrg::Block);
    EXPECT_EQ(cfg.controllerConfig().readAhead,
              ReadAheadMode::Blind);
}

TEST(SystemConfig, AddressableBlocksMatchTheBuiltArray)
{
    // The trace loader bounds records by arrayAddressableBlocks(); it
    // must be exactly what the array accepts, mirrored or not.
    for (bool mirrored : {false, true}) {
        for (unsigned disks : {2u, 4u, 8u}) {
            SystemConfig cfg;
            cfg.disks = disks;
            cfg.mirrored = mirrored;
            EventQueue eq;
            DiskArray array(eq, cfg.arrayConfig());
            EXPECT_EQ(arrayAddressableBlocks(cfg), array.totalBlocks())
                << disks << " disks, mirrored=" << mirrored;
        }
    }
}

} // namespace
} // namespace dtsim
