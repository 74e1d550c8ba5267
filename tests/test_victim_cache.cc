/** @file Tests for the victim-cache HDC host policy. */

#include <gtest/gtest.h>

#include "core/runner.hh"
#include "experiment_replay.hh"
#include "hdc/victim_cache.hh"
#include "workload/synthetic.hh"

namespace dtsim {
namespace {

struct Rig
{
    EventQueue eq;
    ArrayConfig cfg;
    std::unique_ptr<DiskArray> array;

    explicit Rig(std::uint64_t hdc_bytes = 256 * kKiB)
    {
        cfg.disks = 2;
        cfg.stripeUnitBytes = 4 * kKiB;   // 1-block units.
        cfg.controller.hdcBytes = hdc_bytes;
        array = std::make_unique<DiskArray>(eq, cfg);
    }

    std::uint64_t
    pinnedTotal() const
    {
        std::uint64_t n = 0;
        for (unsigned d = 0; d < array->disks(); ++d)
            n += array->controller(d).hdcPinnedBlocks();
        return n;
    }
};

TEST(VictimHdc, PinsOnGhostEviction)
{
    Rig r;
    VictimHdcManager mgr(*r.array, 4);
    // Fill the ghost (4 blocks); nothing pinned yet.
    mgr.onAccess(0, 4);
    EXPECT_EQ(mgr.pins(), 0u);
    // A fifth block evicts block 0 from the ghost -> pinned. The pin
    // command reaches the controller after commandLatency();
    // drain the queue to apply it.
    mgr.onAccess(10, 1);
    EXPECT_EQ(mgr.pins(), 1u);
    r.eq.run();
    EXPECT_EQ(r.pinnedTotal(), 1u);
    EXPECT_TRUE(r.array->controller(0).hdcPinnedBlocks() == 1 ||
                r.array->controller(1).hdcPinnedBlocks() == 1);
}

TEST(VictimHdc, ReaccessUnpins)
{
    Rig r;
    VictimHdcManager mgr(*r.array, 2);
    mgr.onAccess(0, 2);    // Ghost: {0,1}.
    mgr.onAccess(5, 1);    // Evicts 0 -> pinned.
    EXPECT_EQ(mgr.pinnedNow(), 1u);
    mgr.onAccess(0, 1);    // Victim hit: back to host, unpinned.
    EXPECT_EQ(mgr.unpins(), 1u);
    EXPECT_EQ(mgr.pinnedNow(), 1u);   // 1 (the newly evicted 1).
}

TEST(VictimHdc, FifoRetirementWhenRegionFull)
{
    Rig r(4 * 4096);   // 4 pinned blocks per disk, 8 total.
    VictimHdcManager mgr(*r.array, 2);
    // Stream 30 distinct blocks through a 2-block ghost: 28 pin
    // attempts; the per-disk regions (4+4) stay within capacity via
    // FIFO retirement.
    for (ArrayBlock b = 0; b < 30; ++b)
        mgr.onAccess(b, 1);
    // Apply the deferred pin/unpin command stream; the commands land
    // in issue order, so the regions never transiently overflow.
    r.eq.run();
    EXPECT_LE(r.pinnedTotal(), 8u);
    EXPECT_GT(mgr.unpins(), 0u);
    EXPECT_GT(mgr.pins(), 8u);
}

TEST(VictimHdc, RunnerIntegration)
{
    SystemConfig cfg;
    cfg.disks = 2;
    cfg.streams = 8;
    cfg.stripeUnitBytes = 32 * kKiB;
    cfg.kind = SystemKind::Segm;
    cfg.hdc.budgetBytesPerDisk = kMiB;
    cfg.hdc.policy = HdcPolicy::Victim;
    cfg.hdc.victimGhostBlocks = 64;   // Tiny host cache: many victims.

    SyntheticParams sp;
    sp.numFiles = 200;            // Small, reuse-heavy workload.
    sp.fileSizeBytes = 16 * kKiB;
    sp.numRequests = 2000;
    sp.zipfAlpha = 0.9;
    const SyntheticWorkload w =
        makeSynthetic(sp, cfg.disks * cfg.disk.totalBlocks());

    const RunResult r = test::replayTrace(cfg, w.trace);
    EXPECT_GT(r.victimPins, 0u);
    // Re-read victims are served by the controllers.
    EXPECT_GT(r.agg.hdcHitBlocks, 0u);
}

TEST(VictimHdc, NoHdcBudgetNeverPins)
{
    Rig r(0);
    VictimHdcManager mgr(*r.array, 2);
    for (ArrayBlock b = 0; b < 20; ++b)
        mgr.onAccess(b, 1);
    r.eq.run();
    EXPECT_EQ(r.pinnedTotal(), 0u);
    EXPECT_EQ(mgr.pinnedNow(), 0u);
}

} // namespace
} // namespace dtsim
