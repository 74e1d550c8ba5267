/** @file Integration tests for the disk controller. */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bus/scsi_bus.hh"
#include "controller/disk_controller.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace dtsim {
namespace {

/** A controller on a small test drive with convenient helpers. */
struct Rig
{
    EventQueue eq;
    ScsiBus bus;
    DiskParams params;
    ControllerConfig cfg;
    std::unique_ptr<DiskController> ctl;
    std::unique_ptr<LayoutBitmap> bitmap;

    explicit Rig(ControllerConfig c = {}, std::uint64_t hdc = 0)
        : cfg(c)
    {
        cfg.hdcBytes = hdc;
        ctl = std::make_unique<DiskController>(eq, bus, params, cfg,
                                               0);
        bitmap = std::make_unique<LayoutBitmap>(params.totalBlocks());
        ctl->setBitmap(bitmap.get());
    }

    /** Submit a request and run to completion; returns its class. */
    ServiceClass
    doRequest(BlockNum start, std::uint64_t count, bool write = false)
    {
        ServiceClass served = ServiceClass::Media;
        Tick done = 0;
        IoRequest req;
        req.start = start;
        req.count = count;
        req.isWrite = write;
        req.onComplete = [&](const IoRequest& r, Tick when) {
            served = r.served;
            done = when;
        };
        ctl->submit(std::move(req));
        eq.run();
        EXPECT_GT(done, 0u);
        return served;
    }
};

TEST(DiskController, ColdReadGoesToMedia)
{
    Rig r;
    EXPECT_EQ(r.doRequest(1000, 4), ServiceClass::Media);
    EXPECT_EQ(r.ctl->stats().reads, 1u);
    EXPECT_EQ(r.ctl->stats().mediaAccesses, 1u);
    EXPECT_GT(r.ctl->stats().mediaBusy, 0u);
}

TEST(DiskController, BlindReadAheadFillsSegment)
{
    Rig r;   // Default: Segment org, blind RA, 128 KB segments.
    r.doRequest(1000, 4);
    // 4 demanded + 28 read-ahead = 32 blocks (128 KB).
    EXPECT_EQ(r.ctl->stats().mediaBlocks, 4u);
    EXPECT_EQ(r.ctl->stats().readAheadBlocks, 28u);
    // The read-ahead data serves the sequential continuation.
    EXPECT_EQ(r.doRequest(1004, 4), ServiceClass::CacheHit);
    EXPECT_EQ(r.ctl->stats().mediaAccesses, 1u);
}

TEST(DiskController, ReadAheadStatsExportFixedBudget)
{
    // The read_ahead group reports what the fixed budget fetched and
    // how much of it was used; there is no depth control to report.
    Rig r;
    r.doRequest(1000, 4);
    r.doRequest(1004, 4);

    stats::StatGroup root("ctl");
    r.ctl->exportStats(root);
    std::ostringstream os;
    root.print(os);
    const std::string dump = os.str();
    EXPECT_NE(dump.find("read_ahead_blocks 28 "), std::string::npos)
        << dump;
    EXPECT_NE(dump.find("read_ahead.spec_inserted 28 "),
              std::string::npos)
        << dump;
    EXPECT_NE(dump.find("read_ahead.spec_used 4 "), std::string::npos)
        << dump;
    // spec_inserted, spec_used, spec_wasted and accuracy only.
    std::istringstream lines(dump);
    int ra_stats = 0;
    for (std::string line; std::getline(lines, line);)
        ra_stats += line.find("read_ahead.") != std::string::npos;
    EXPECT_EQ(ra_stats, 4) << dump;
}

TEST(DiskController, NoReadAheadReadsExactly)
{
    ControllerConfig c;
    c.org = CacheOrg::Block;
    c.readAhead = ReadAheadMode::None;
    Rig r(c);
    r.doRequest(1000, 4);
    EXPECT_EQ(r.ctl->stats().readAheadBlocks, 0u);
    // The next sequential blocks were never fetched.
    EXPECT_EQ(r.doRequest(1004, 4), ServiceClass::Media);
}

TEST(DiskController, ForReadsToEndOfFileOnly)
{
    ControllerConfig c;
    c.org = CacheOrg::Block;
    c.readAhead = ReadAheadMode::FOR;
    Rig r(c);
    // A 8-block file at 1000: continuation bits 1001..1007.
    for (BlockNum b = 1001; b < 1008; ++b)
        r.bitmap->set(b, true);

    r.doRequest(1000, 2);
    // Demanded 2, read ahead to the end of the file: 6 more.
    EXPECT_EQ(r.ctl->stats().readAheadBlocks, 6u);
    EXPECT_EQ(r.doRequest(1002, 6), ServiceClass::CacheHit);
    // Beyond the file: media again.
    EXPECT_EQ(r.doRequest(1008, 2), ServiceClass::Media);
}

TEST(DiskController, ForReadAheadCappedAtSegmentSize)
{
    ControllerConfig c;
    c.org = CacheOrg::Block;
    c.readAhead = ReadAheadMode::FOR;
    Rig r(c);
    for (BlockNum b = 1001; b < 1200; ++b)
        r.bitmap->set(b, true);
    r.doRequest(1000, 2);
    // Budget = 32-block max read minus the 2 demanded.
    EXPECT_EQ(r.ctl->stats().readAheadBlocks, 30u);
}

TEST(DiskController, PartialPrefixHitShortensMediaAccess)
{
    Rig r;
    r.doRequest(1000, 4);   // Caches 1000..1031.
    r.doRequest(1030, 4);   // 1030,1031 cached; 1032,1033 missing.
    EXPECT_EQ(r.ctl->stats().mediaAccesses, 2u);
    EXPECT_EQ(r.ctl->stats().mediaBlocks, 4u + 2u);
    EXPECT_EQ(r.ctl->stats().raHitBlocks, 2u);
}

TEST(DiskController, WriteGoesToMediaAndInvalidates)
{
    Rig r;
    r.doRequest(1000, 4);
    EXPECT_EQ(r.doRequest(1004, 2, true), ServiceClass::Media);
    EXPECT_EQ(r.ctl->stats().writes, 1u);
    // The overwritten blocks are no longer served from cache.
    EXPECT_EQ(r.doRequest(1004, 2), ServiceClass::Media);
}

TEST(DiskController, WritesDoNotReadAhead)
{
    Rig r;
    r.doRequest(1000, 4, true);
    EXPECT_EQ(r.ctl->stats().readAheadBlocks, 0u);
}

TEST(DiskController, HdcPinServesReads)
{
    Rig r({}, 256 * kKiB);
    for (BlockNum b = 500; b < 504; ++b)
        EXPECT_TRUE(r.ctl->pinBlock(b));
    EXPECT_EQ(r.doRequest(500, 4), ServiceClass::HdcHit);
    EXPECT_EQ(r.ctl->stats().mediaAccesses, 0u);
    EXPECT_EQ(r.ctl->stats().hdcHitRequests, 1u);
    EXPECT_EQ(r.ctl->stats().hdcHitBlocks, 4u);
}

TEST(DiskController, HdcAbsorbsFullyPinnedWrites)
{
    Rig r({}, 256 * kKiB);
    r.ctl->pinBlock(500);
    r.ctl->pinBlock(501);
    EXPECT_EQ(r.doRequest(500, 2, true), ServiceClass::HdcHit);
    EXPECT_EQ(r.ctl->stats().mediaAccesses, 0u);
    // flush_hdc() pushes the dirty data out as one coalesced write.
    EXPECT_EQ(r.ctl->flushHdc(), 1u);
    r.eq.run();
    EXPECT_EQ(r.ctl->stats().flushWrites, 1u);
    EXPECT_EQ(r.ctl->stats().mediaAccesses, 1u);
}

TEST(DiskController, PartiallyPinnedWriteGoesToMedia)
{
    Rig r({}, 256 * kKiB);
    r.ctl->pinBlock(500);
    EXPECT_EQ(r.doRequest(500, 2, true), ServiceClass::Media);
}

TEST(DiskController, UnpinDirtyBlockWritesBack)
{
    Rig r({}, 256 * kKiB);
    r.ctl->pinBlock(500);
    r.doRequest(500, 1, true);   // Absorbed, dirty.
    EXPECT_TRUE(r.ctl->unpinBlock(500));
    r.eq.run();
    EXPECT_EQ(r.ctl->stats().flushWrites, 1u);
}

TEST(DiskController, HdcCarvesCacheBudget)
{
    Rig plain;
    Rig with_hdc({}, 2 * kMiB);
    EXPECT_LT(with_hdc.ctl->raCacheBlocks(),
              plain.ctl->raCacheBlocks());
    EXPECT_EQ(with_hdc.ctl->hdcCapacityBlocks(), 512u);
}

TEST(DiskController, ForBitmapCarvesCacheBudget)
{
    ControllerConfig seg;
    seg.org = CacheOrg::Block;
    seg.readAhead = ReadAheadMode::Blind;
    Rig blind(seg);
    ControllerConfig forr;
    forr.org = CacheOrg::Block;
    forr.readAhead = ReadAheadMode::FOR;
    Rig with_for(forr);
    EXPECT_LT(with_for.ctl->raCacheBlocks(),
              blind.ctl->raCacheBlocks());
}

TEST(DiskController, SegmentCountMatchesTable1)
{
    Rig r;
    // 4 MB cache minus the firmware reservation: 27 segments.
    EXPECT_EQ(r.ctl->raCacheBlocks(), 27u * 32u);
}

TEST(DiskController, QueuedRequestsAllComplete)
{
    Rig r;
    int completed = 0;
    for (int i = 0; i < 50; ++i) {
        IoRequest req;
        req.start = static_cast<BlockNum>(i) * 10000;
        req.count = 4;
        req.onComplete = [&](const IoRequest&, Tick) { ++completed; };
        r.ctl->submit(std::move(req));
    }
    r.eq.run();
    EXPECT_EQ(completed, 50);
    EXPECT_EQ(r.ctl->outstanding(), 0u);
}

TEST(DiskController, DrainedCountersSatisfyIdentities)
{
    Rig r;
    for (int i = 0; i < 50; ++i) {
        IoRequest req;
        req.start = static_cast<BlockNum>(i % 7) * 40;
        req.count = 4;
        req.isWrite = i % 5 == 0;
        r.ctl->submit(std::move(req));
        r.eq.run();  // One at a time, so repeats hit the cache.
    }
    EXPECT_GT(r.ctl->stats().cacheHitRequests, 0u);
    EXPECT_TRUE(r.ctl->accountingErrors().empty());
}

TEST(DiskController, AccountingErrorsNameEachBrokenIdentity)
{
    // A consistent set: 10 requests, 4 of them cache hits, 6 media
    // accesses plus one flush and one rebuild job.
    ControllerStats s;
    s.reads = 8;
    s.writes = 2;
    s.readBlocks = 30;
    s.writeBlocks = 10;
    s.cacheHitRequests = 4;
    s.hdcHitBlocks = 6;
    s.raHitBlocks = 9;
    s.mediaAccesses = 8;
    s.mediaBlocks = 25;
    s.flushWrites = 1;
    s.rebuildJobs = 1;
    SchedulerStats sched;
    sched.pushes = sched.pops = 8;
    MechCounters mech;
    mech.accesses = 8;
    RaCounters ra;
    ra.specInserted = 20;
    ra.specUsed = 12;
    ra.specWasted = 8;
    EXPECT_TRUE(accountingErrors(3, s, sched, mech, ra).empty());

    const auto only = [&](const ControllerStats& cs,
                          const SchedulerStats& ss,
                          const MechCounters& mc, const RaCounters& rc,
                          const char* needle) {
        const std::vector<std::string> bad =
            accountingErrors(3, cs, ss, mc, rc);
        ASSERT_EQ(bad.size(), 1u) << needle;
        EXPECT_NE(bad[0].find("disk3: "), std::string::npos) << bad[0];
        EXPECT_NE(bad[0].find(needle), std::string::npos) << bad[0];
    };
    ControllerStats no_rebuild = s;
    no_rebuild.rebuildJobs = 0;
    only(no_rebuild, sched, mech, ra, "cache_hit_requests+media");
    ControllerStats lost_block = s;
    lost_block.mediaBlocks = 24;
    only(lost_block, sched, mech, ra, "media_blocks");
    SchedulerStats stuck = sched;
    stuck.pushes = 9;
    only(s, stuck, mech, ra, "sched.pushes == sched.pops");
    MechCounters extra = mech;
    extra.accesses = 9;
    only(s, sched, extra, ra, "mech.accesses");
    RaCounters over = ra;
    over.specWasted = 9;
    only(s, sched, mech, over, "spec_inserted");
}

TEST(DiskController, RejectsInvalidRequests)
{
    Rig r;
    IoRequest past_end;
    past_end.start = r.params.totalBlocks();
    past_end.count = 1;
    EXPECT_DEATH(
        {
            Rig r2;
            IoRequest bad;
            bad.start = r2.params.totalBlocks();
            bad.count = 1;
            r2.ctl->submit(std::move(bad));
        },
        "past end");
}

} // namespace
} // namespace dtsim
