/** @file Tests for the host-side HDC planning policy. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "hdc/hdc_planner.hh"
#include "sim/flat_table.hh"
#include "sim/rng.hh"

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

/**
 * The planner's earlier ranking, kept as the reference: counts in a
 * FlatTable, (block, count) pairs in a max-heap under (count desc,
 * block asc), popped only as deep as a selection reads.
 */
class RefRanking
{
  public:
    void
    add(ArrayBlock block, std::uint64_t count = 1)
    {
        *counts_.insert(block, 0).first += count;
    }

    void
    addTrace(const Trace& trace)
    {
        for (const TraceRecord& r : trace)
            for (std::uint32_t i = 0; i < r.count; ++i)
                add(r.start + i);
    }

    std::size_t distinctBlocks() const { return counts_.size(); }

    /** Freeze the counts into the heap; call once, before select(). */
    void
    rank()
    {
        counts_.forEach([&](std::uint64_t block, std::uint64_t n) {
            entries_.emplace_back(block, n);
        });
        std::make_heap(entries_.begin(), entries_.end(), ranksAfter);
        heapEnd_ = entries_.size();
    }

    std::vector<ArrayBlock>
    select(const StripingMap& striping, std::uint64_t per_disk)
    {
        std::vector<std::uint64_t> budget(striping.disks(), per_disk);
        std::uint64_t left = per_disk * striping.disks();
        std::vector<ArrayBlock> pinned;
        for (std::size_t k = 0; left != 0; ++k) {
            if (k == entries_.size() - heapEnd_) {
                if (heapEnd_ == 0)
                    break;
                std::pop_heap(entries_.begin(),
                              entries_.begin() +
                                  static_cast<std::ptrdiff_t>(heapEnd_),
                              ranksAfter);
                --heapEnd_;
            }
            const ArrayBlock block =
                entries_[entries_.size() - 1 - k].first;
            const unsigned disk = striping.toPhysical(block).disk;
            if (budget[disk] == 0)
                continue;
            --budget[disk];
            --left;
            pinned.push_back(block);
        }
        return pinned;
    }

  private:
    using Entry = std::pair<ArrayBlock, std::uint64_t>;

    static bool
    ranksAfter(const Entry& a, const Entry& b)
    {
        if (a.second != b.second)
            return a.second < b.second;
        return a.first > b.first;
    }

    FlatTable<std::uint64_t> counts_;
    std::vector<Entry> entries_;
    std::size_t heapEnd_ = 0;
};

/**
 * One ranking, read by every striping and budget below in a seeded
 * shuffled order, must select what the reference selects each time.
 */
void
expectSameSelections(const MissRanking& real, RefRanking& ref, Rng& rng,
                     const std::string& what)
{
    const StripingMap maps[] = {
        StripingMap(1, 1, 1000), StripingMap(2, 4, 1000),
        StripingMap(3, 2, 1000), StripingMap(8, 1, 1000),
        StripingMap(8, 32, 1u << 20)};
    const std::uint64_t budgets[] = {0, 1, 5, 40, 1000, 1u << 20};
    std::vector<std::pair<std::size_t, std::size_t>> order;
    for (std::size_t m = 0; m < std::size(maps); ++m)
        for (std::size_t b = 0; b < std::size(budgets); ++b)
            order.emplace_back(m, b);
    for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    for (const auto& [m, b] : order) {
        ASSERT_EQ(real.select(maps[m], budgets[b]),
                  ref.select(maps[m], budgets[b]))
            << what << ": disks " << maps[m].disks() << " budget "
            << budgets[b];
    }
}

/** A seeded trace of runs of 1..max_run blocks from `start()`. */
template <typename StartFn>
Trace
randomTrace(Rng& rng, std::size_t records, std::uint64_t max_run,
            StartFn start)
{
    Trace t(records);
    for (std::size_t i = 0; i < records; ++i) {
        t[i].start = start();
        t[i].count = static_cast<std::uint32_t>(1 + rng.below(max_run));
        t[i].job = static_cast<std::uint32_t>(i);
    }
    return t;
}

/** Rank `t` both ways and compare counts and every selection. */
void
checkTrace(const Trace& t, Rng& rng, const std::string& what)
{
    MissCounter counter;
    counter.addTrace(t);
    RefRanking ref;
    ref.addTrace(t);
    EXPECT_EQ(counter.distinctBlocks(), ref.distinctBlocks()) << what;
    ref.rank();
    expectSameSelections(MissRanking(t), ref, rng, what);
    expectSameSelections(MissRanking(counter), ref, rng, what);
}

TEST(MissRankingDifferential, ManyTies)
{
    // 64 blocks and short runs: every count is shared by many blocks.
    Rng rng(0x7135);
    for (int round = 0; round < 20; ++round) {
        const Trace t = randomTrace(rng, 1 + rng.below(300), 4,
                                    [&] { return rng.below(64); });
        checkTrace(t, rng, "ties round " + std::to_string(round));
    }
}

TEST(MissRankingDifferential, FarApartPagesAndBlocksAbove2To32)
{
    // Clusters on pages far apart, runs across page edges, blocks
    // above 2^32 and near 2^62.
    const ArrayBlock bases[] = {0,
                                MissCounter::kPageBlocks - 5,
                                MissCounter::kPageBlocks * 1000 - 3,
                                (ArrayBlock{1} << 32) - 2,
                                (ArrayBlock{1} << 32) +
                                    MissCounter::kPageBlocks * 5,
                                (ArrayBlock{1} << 40) + 7,
                                ArrayBlock{1} << 62};
    Rng rng(0xfa7);
    for (int round = 0; round < 20; ++round) {
        const Trace t = randomTrace(rng, 1 + rng.below(400), 40, [&] {
            return bases[rng.below(std::size(bases))] + rng.below(9000);
        });
        checkTrace(t, rng, "far round " + std::to_string(round));
    }
}

TEST(MissRankingDifferential, SkewedPopularity)
{
    // Zipf-popular blocks, like a server trace: a long tail of ties
    // under a few hot blocks.
    Rng rng(0x21bf);
    const ZipfSampler zipf(3000, 1.0);
    for (int round = 0; round < 10; ++round) {
        const Trace t = randomTrace(rng, 2000, 8,
                                    [&] { return zipf.sample(rng); });
        checkTrace(t, rng, "zipf round " + std::to_string(round));
    }
}

TEST(MissRankingDifferential, EmptyTrace)
{
    Rng rng(1);
    checkTrace(Trace{}, rng, "empty");
    EXPECT_TRUE(MissRanking(Trace{})
                    .select(StripingMap(2, 1, 1000), 10)
                    .empty());
}

TEST(MissRankingDifferential, CountsAboveTheBlockCount)
{
    // Hand-set counts far above the number of distinct blocks share
    // the counting sort's top bucket, which a stable sort orders.
    Rng rng(0xb16);
    for (int round = 0; round < 20; ++round) {
        MissCounter counter;
        RefRanking ref;
        const std::uint64_t counts[] = {1, 2, 3, 1000, 1000,
                                        std::uint64_t{1} << 40};
        for (std::uint64_t i = 0, n = 1 + rng.below(50); i < n; ++i) {
            const ArrayBlock block = rng.below(20000);
            const std::uint64_t count =
                counts[rng.below(std::size(counts))];
            counter.add(block, count);
            ref.add(block, count);
        }
        ref.rank();
        expectSameSelections(MissRanking(counter), ref, rng,
                             "big counts round " + std::to_string(round));
    }
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
