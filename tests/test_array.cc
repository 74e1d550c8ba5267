/** @file Integration tests for the striped disk array. */

#include <gtest/gtest.h>

#include "array/disk_array.hh"
#include "sim/event_queue.hh"

namespace dtsim {
namespace {

struct Rig
{
    EventQueue eq;
    ArrayConfig cfg;
    std::unique_ptr<DiskArray> array;

    explicit Rig(unsigned disks = 4,
                 std::uint64_t unit_bytes = 32 * kKiB)
    {
        cfg.disks = disks;
        cfg.stripeUnitBytes = unit_bytes;
        array = std::make_unique<DiskArray>(eq, cfg);
    }

    Tick
    doRequest(ArrayBlock start, std::uint64_t count,
              bool write = false)
    {
        Tick done = 0;
        ArrayRequest req;
        req.start = start;
        req.count = count;
        req.isWrite = write;
        req.onComplete = [&](const ArrayRequest&, Tick when) {
            done = when;
        };
        array->submit(std::move(req));
        eq.run();
        EXPECT_GT(done, 0u);
        return done;
    }
};

TEST(DiskArray, SmallRequestHitsOneDisk)
{
    Rig r;
    r.doRequest(0, 4);
    EXPECT_EQ(r.array->controller(0).stats().reads, 1u);
    for (unsigned d = 1; d < 4; ++d)
        EXPECT_EQ(r.array->controller(d).stats().reads, 0u);
}

TEST(DiskArray, LargeRequestFansOut)
{
    Rig r;   // 8-block units.
    r.doRequest(0, 32);   // 4 units -> all 4 disks.
    for (unsigned d = 0; d < 4; ++d) {
        EXPECT_EQ(r.array->controller(d).stats().reads, 1u);
        EXPECT_EQ(r.array->controller(d).stats().readBlocks, 8u);
    }
}

TEST(DiskArray, CompletionWaitsForAllSubRequests)
{
    Rig r;
    const Tick fanout = r.doRequest(0, 32);
    Rig r2;
    const Tick single = r2.doRequest(0, 8);
    // The fan-out completes no earlier than a single sub-request of
    // the same per-disk size (gamma(D) >= 1).
    EXPECT_GE(fanout, single);
}

TEST(DiskArray, OutstandingTracksInFlight)
{
    Rig r;
    ArrayRequest req;
    req.start = 0;
    req.count = 32;
    req.onComplete = [](const ArrayRequest&, Tick) {};
    r.array->submit(std::move(req));
    EXPECT_EQ(r.array->outstanding(), 1u);
    r.eq.run();
    EXPECT_EQ(r.array->outstanding(), 0u);
}

TEST(DiskArray, AllCacheHitsFlagPropagates)
{
    Rig r;
    {
        ArrayRequest req;
        req.start = 0;
        req.count = 4;
        r.array->submit(std::move(req));
        r.eq.run();
    }
    bool all_hits = false;
    ArrayRequest again;
    again.start = 0;
    again.count = 4;
    again.onComplete = [&](const ArrayRequest& done, Tick) {
        all_hits = done.allCacheHits;
    };
    r.array->submit(std::move(again));
    r.eq.run();
    EXPECT_TRUE(all_hits);
}

TEST(DiskArray, SameTickCompletionsReserveTheBusInEventOrder)
{
    // Disk 1's request is submitted first and disk 0's right after,
    // at the same offset on each disk: both media accesses start and
    // end on the same tick, disk 1's completion event first. The bus
    // is reserved in that event order, not in disk-index order.
    Rig r(2, 32 * kKiB);   // 8-block units: block 8 is disk 1's first.
    Tick done[2] = {0, 0};
    for (const unsigned d : {1u, 0u}) {
        ArrayRequest req;
        req.start = 8 * d;
        req.count = 4;
        req.onComplete = [&done, d](const ArrayRequest&, Tick when) {
            done[d] = when;
        };
        r.array->submit(std::move(req));
    }
    r.eq.run();

    const ControllerStats& s0 = r.array->controller(0).stats();
    const ControllerStats& s1 = r.array->controller(1).stats();
    ASSERT_EQ(s0.mediaAccesses, 1u);
    ASSERT_EQ(s1.mediaAccesses, 1u);
    ASSERT_EQ(s0.mediaBusy, s1.mediaBusy);    // same media end tick
    ASSERT_EQ(s0.queueTime, s1.queueTime);

    // Disk 1 gets the bus at once; disk 0 waits for disk 1's tenure.
    const Tick tenure =
        r.array->bus().transferTime(4 * r.cfg.disk.blockSize);
    EXPECT_LT(done[1], done[0]);
    EXPECT_EQ(done[0] - done[1], tenure);
    EXPECT_LT(s1.busTime, s0.busTime);
}

TEST(DiskArray, PinRoutesToOwningDisk)
{
    ArrayConfig cfg;
    cfg.disks = 4;
    cfg.stripeUnitBytes = 32 * kKiB;
    cfg.controller.hdcBytes = 256 * kKiB;
    EventQueue eq;
    DiskArray array(eq, cfg);

    // Logical block 8 sits on disk 1 (unit 8 blocks).
    EXPECT_TRUE(array.pinLogicalBlock(8));
    EXPECT_EQ(array.controller(1).hdcPinnedBlocks(), 1u);
    EXPECT_EQ(array.controller(0).hdcPinnedBlocks(), 0u);
    EXPECT_TRUE(array.unpinLogicalBlock(8));
    EXPECT_EQ(array.controller(1).hdcPinnedBlocks(), 0u);
}

TEST(DiskArray, FlushAllHdcCoversEveryDisk)
{
    ArrayConfig cfg;
    cfg.disks = 2;
    cfg.stripeUnitBytes = 4 * kKiB;   // 1-block units.
    cfg.controller.hdcBytes = 256 * kKiB;
    EventQueue eq;
    DiskArray array(eq, cfg);
    array.pinLogicalBlock(0);   // Disk 0.
    array.pinLogicalBlock(1);   // Disk 1.

    // Write both pinned blocks (absorbed, dirty).
    for (ArrayBlock b : {0u, 1u}) {
        ArrayRequest req;
        req.start = b;
        req.count = 1;
        req.isWrite = true;
        array.submit(std::move(req));
    }
    eq.run();
    EXPECT_EQ(array.flushAllHdc(), 2u);
    eq.run();
    EXPECT_EQ(array.aggregateStats().flushWrites, 2u);
}

TEST(DiskArray, AggregateStatsSumAcrossDisks)
{
    Rig r;
    r.doRequest(0, 32);
    const ControllerStats agg = r.array->aggregateStats();
    EXPECT_EQ(agg.reads, 4u);
    EXPECT_EQ(agg.readBlocks, 32u);
    EXPECT_EQ(agg.mediaAccesses, 4u);
}

TEST(DiskArray, RejectsOutOfRange)
{
    EXPECT_DEATH(
        {
            Rig r;
            ArrayRequest req;
            req.start = r.array->totalBlocks();
            req.count = 1;
            r.array->submit(std::move(req));
        },
        "past end");
}

TEST(DiskArray, ManyConcurrentRequestsBalanceLoad)
{
    Rig r(4, 4 * kKiB);   // 1-block units spread everything.
    int done = 0;
    for (int i = 0; i < 400; ++i) {
        ArrayRequest req;
        req.start = static_cast<ArrayBlock>(i * 997 % 100000);
        req.count = 1;
        req.onComplete = [&](const ArrayRequest&, Tick) { ++done; };
        r.array->submit(std::move(req));
    }
    r.eq.run();
    EXPECT_EQ(done, 400);
    for (unsigned d = 0; d < 4; ++d)
        EXPECT_GT(r.array->controller(d).stats().reads, 50u);
}

} // namespace
} // namespace dtsim
