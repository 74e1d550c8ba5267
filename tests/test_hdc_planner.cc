/** @file Tests for the host-side HDC planning policy. */

#include <gtest/gtest.h>

#include "hdc/hdc_planner.hh"

namespace dtsim {
namespace {

TEST(MissCounter, CountsBlocksOfRecords)
{
    Trace t;
    t.push_back({10, 4, false, 0});
    t.push_back({12, 2, true, 1});
    MissCounter c;
    c.addTrace(t);
    EXPECT_EQ(c.count(10), 1u);
    EXPECT_EQ(c.count(12), 2u);
    EXPECT_EQ(c.count(13), 2u);
    EXPECT_EQ(c.count(14), 0u);
    EXPECT_EQ(c.distinctBlocks(), 4u);
}

/** Rank by hand-set counts; one disk takes the top `k`. */
std::vector<ArrayBlock>
topBlocks(const MissCounter& c, std::uint64_t k)
{
    return MissRanking(c).select(StripingMap(1, 1, 1000), k);
}

TEST(MissRanking, OrderedByCount)
{
    MissCounter c;
    c.add(1, 5);
    c.add(2, 9);
    c.add(3, 1);
    EXPECT_EQ(topBlocks(c, 2), (std::vector<ArrayBlock>{2, 1}));
}

TEST(MissRanking, TiesBreakTowardLowerBlock)
{
    MissCounter c;
    c.add(9, 3);
    c.add(4, 3);
    c.add(7, 3);
    EXPECT_EQ(topBlocks(c, 3), (std::vector<ArrayBlock>{4, 7, 9}));
}

TEST(MissRanking, CountsTheTrace)
{
    Trace t;
    t.push_back({10, 4, false, 0});
    t.push_back({12, 2, true, 1});
    // 12 and 13 missed twice; then 10, 11 by block number.
    EXPECT_EQ(MissRanking(t).select(StripingMap(1, 1, 1000), 8),
              (std::vector<ArrayBlock>{12, 13, 10, 11}));
}

TEST(MissRanking, SelectionsShareOneRanking)
{
    // Blocks 0..63 with distinct counts (block b missed b + 1 times).
    // Selections of growing and shrinking depth, on different
    // stripings, must each equal a fresh ranking's answer.
    MissCounter c;
    for (ArrayBlock b = 0; b < 64; ++b)
        c.add(b, b + 1);
    MissRanking shared(c);
    const StripingMap maps[] = {StripingMap(1, 1, 1000),
                                StripingMap(2, 4, 1000),
                                StripingMap(3, 2, 1000),
                                StripingMap(8, 1, 1000)};
    for (std::uint64_t budget : {1u, 40u, 2u, 100u, 0u, 5u}) {
        for (const StripingMap& m : maps) {
            EXPECT_EQ(shared.select(m, budget),
                      MissRanking(c).select(m, budget))
                << "budget " << budget << " disks " << m.disks();
        }
    }
    // A disk's budget past its blocks pins all of them, hottest first.
    const auto all = shared.select(StripingMap(2, 4, 1000), 1000);
    ASSERT_EQ(all.size(), 64u);
    EXPECT_EQ(all.front(), 63u);
    EXPECT_EQ(all.back(), 0u);
}

TEST(SelectPinned, RespectsPerDiskBudget)
{
    // 2 disks, unit 2 blocks. Blocks 0,1 on disk 0; 2,3 on disk 1;
    // 4,5 on disk 0; ...
    StripingMap m(2, 2, 1000);
    Trace t;
    // Make disk-0 blocks extremely hot.
    for (int i = 0; i < 10; ++i)
        t.push_back({0, 2, false, static_cast<std::uint32_t>(i)});
    t.push_back({2, 2, false, 100});   // Disk 1, cooler.
    const auto pinned = selectPinnedBlocks(t, m, 1);
    // One block per disk: the hottest of each.
    ASSERT_EQ(pinned.size(), 2u);
    EXPECT_EQ(m.toPhysical(pinned[0]).disk, 0u);
    EXPECT_EQ(m.toPhysical(pinned[1]).disk, 1u);
}

TEST(SelectPinned, SkipsDisksWithoutTraffic)
{
    StripingMap m(4, 1, 1000);
    Trace t;
    t.push_back({0, 1, false, 0});   // Disk 0 only.
    const auto pinned = selectPinnedBlocks(t, m, 8);
    EXPECT_EQ(pinned.size(), 1u);
}

TEST(SelectPinned, HottestBlocksChosenFirst)
{
    StripingMap m(1, 32, 100000);
    Trace t;
    for (int i = 0; i < 50; ++i)
        t.push_back({7, 1, false, static_cast<std::uint32_t>(i)});
    for (int i = 0; i < 20; ++i)
        t.push_back({13, 1, false, static_cast<std::uint32_t>(i)});
    t.push_back({20, 1, false, 999});
    const auto pinned = selectPinnedBlocks(t, m, 2);
    ASSERT_EQ(pinned.size(), 2u);
    EXPECT_EQ(pinned[0], 7u);
    EXPECT_EQ(pinned[1], 13u);
}

TEST(SelectPinned, ZeroBudgetPinsNothing)
{
    StripingMap m(2, 2, 1000);
    Trace t;
    t.push_back({0, 4, false, 0});
    EXPECT_TRUE(selectPinnedBlocks(t, m, 0).empty());
}

} // namespace
} // namespace dtsim
