/** @file Tests for the file-system layout model and bitmap builder. */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "fs/file_layout.hh"

namespace dtsim {
namespace {

std::vector<std::uint64_t>
uniformSizes(std::size_t n, std::uint64_t bytes)
{
    return std::vector<std::uint64_t>(n, bytes);
}

TEST(FileLayout, SequentialAllocationWithoutFragmentation)
{
    LayoutParams lp;
    FileSystemImage img(uniformSizes(10, 16384), lp, 1000);
    EXPECT_EQ(img.fileCount(), 10u);
    EXPECT_EQ(img.dataBlocks(), 40u);
    EXPECT_EQ(img.allocatedBlocks(), 40u);   // No holes.
    for (FileId f = 0; f < 10; ++f) {
        const FileLayout& fl = img.file(f);
        EXPECT_EQ(fl.blocks(), 4u);
        ASSERT_EQ(fl.extents.size(), 1u);
        EXPECT_EQ(fl.extents[0].start, static_cast<ArrayBlock>(f * 4));
    }
}

TEST(FileLayout, SizesRoundUpToBlocks)
{
    LayoutParams lp;
    FileSystemImage img({1, 4096, 4097, 0}, lp, 1000);
    EXPECT_EQ(img.file(0).blocks(), 1u);
    EXPECT_EQ(img.file(1).blocks(), 1u);
    EXPECT_EQ(img.file(2).blocks(), 2u);
    EXPECT_EQ(img.file(3).blocks(), 1u);   // Empty file: one block.
}

TEST(FileLayout, BlockAtWalksExtents)
{
    LayoutParams lp;
    lp.fragmentation = 0.5;
    lp.seed = 5;
    FileSystemImage img(uniformSizes(1, 16 * 4096), lp, 1000);
    const FileLayout& f = img.file(0);
    EXPECT_GT(f.extents.size(), 1u);
    // blockAt must enumerate exactly the extents in order.
    std::uint64_t idx = 0;
    for (const FileExtent& e : f.extents) {
        for (std::uint64_t k = 0; k < e.count; ++k)
            EXPECT_EQ(f.blockAt(idx++), e.start + k);
    }
    EXPECT_EQ(idx, 16u);
}

TEST(FileLayout, FragmentationCreatesHoles)
{
    LayoutParams lp;
    lp.fragmentation = 0.3;
    lp.seed = 7;
    FileSystemImage img(uniformSizes(100, 32 * 4096), lp, 100000);
    EXPECT_GT(img.allocatedBlocks(), img.dataBlocks());
}

TEST(FileLayout, OverflowIsFatal)
{
    LayoutParams lp;
    EXPECT_DEATH(
        { FileSystemImage img(uniformSizes(10, 16384), lp, 30); },
        "exceed capacity");
}

TEST(FileLayout, AverageRunMatchesAnalyticModel)
{
    // Figure 1's model: avg run = n / (1 + (n-1) p).
    LayoutParams lp;
    lp.fragmentation = 0.05;
    lp.seed = 11;
    const std::uint64_t n = 32;
    FileSystemImage img(uniformSizes(20000, n * 4096), lp,
                        64ULL << 20);
    StripingMap identity(1, 64ULL << 20, 64ULL << 20);
    const double run = img.averageSequentialRun(identity);
    const double model =
        static_cast<double>(n) / (1.0 + (n - 1) * 0.05);
    EXPECT_NEAR(run, model, model * 0.05);
}

TEST(FileLayout, ZeroFragmentationYieldsWholeFileRuns)
{
    LayoutParams lp;
    FileSystemImage img(uniformSizes(100, 8 * 4096), lp, 10000);
    StripingMap identity(1, 10000, 10000);
    EXPECT_DOUBLE_EQ(img.averageSequentialRun(identity), 8.0);
}

TEST(FileLayout, BitmapMarksIntraFileContinuations)
{
    LayoutParams lp;
    FileSystemImage img(uniformSizes(3, 4 * 4096), lp, 1000);
    StripingMap identity(1, 1000, 1000);
    const auto maps = img.buildBitmaps(identity);
    ASSERT_EQ(maps.size(), 1u);
    const LayoutBitmap& bm = maps[0];
    // Files at blocks [0,4), [4,8), [8,12). Bits: file starts are 0,
    // intra-file blocks are 1.
    for (BlockNum b : {0u, 4u, 8u})
        EXPECT_FALSE(bm.get(b)) << b;
    for (BlockNum b : {1u, 2u, 3u, 5u, 6u, 7u, 9u, 10u, 11u})
        EXPECT_TRUE(bm.get(b)) << b;
    // FOR read-ahead from a file start covers exactly the file.
    EXPECT_EQ(bm.countRun(1, 100), 3u);
}

TEST(FileLayout, BitmapStopsAtStripeUnitBoundaries)
{
    // A 16-block file striped at 4-block units over 2 disks: on each
    // disk, consecutive local blocks from different units hold
    // non-consecutive file data, so the continuation bit is 0 there.
    LayoutParams lp;
    FileSystemImage img(uniformSizes(1, 16 * 4096), lp, 1000);
    StripingMap striping(2, 4, 500);
    const auto maps = img.buildBitmaps(striping);
    for (unsigned d = 0; d < 2; ++d) {
        const LayoutBitmap& bm = maps[d];
        // Local blocks 0..7 on each disk hold units (d, d+2).
        EXPECT_FALSE(bm.get(0));
        EXPECT_TRUE(bm.get(1));
        EXPECT_TRUE(bm.get(2));
        EXPECT_TRUE(bm.get(3));
        EXPECT_FALSE(bm.get(4)) << "unit boundary on disk " << d;
        EXPECT_TRUE(bm.get(5));
    }
}

TEST(FileLayout, BitmapFragmentedFileBreaksRuns)
{
    LayoutParams lp;
    lp.fragmentation = 1.0;   // Break at every boundary.
    lp.seed = 13;
    FileSystemImage img(uniformSizes(1, 8 * 4096), lp, 1000);
    StripingMap identity(1, 1000, 1000);
    const auto maps = img.buildBitmaps(identity);
    // Every block is separated by a hole: no continuations at all.
    EXPECT_EQ(maps[0].popcount(), 0u);
}

TEST(FileLayout, StripedAverageRunCappedByUnit)
{
    LayoutParams lp;
    FileSystemImage img(uniformSizes(50, 32 * 4096), lp, 10000);
    StripingMap striping(4, 8, 2048);
    // Unbroken 32-block files, but each 8-block unit lands on a
    // different disk: runs are exactly 8.
    EXPECT_DOUBLE_EQ(img.averageSequentialRun(striping), 8.0);
}

/** Runs of [idx, idx+count) by the blockAt/contiguousRun walk. */
std::vector<std::pair<ArrayBlock, std::uint64_t>>
referenceRuns(const FileLayout& f, std::uint64_t idx,
              std::uint64_t count)
{
    std::vector<std::pair<ArrayBlock, std::uint64_t>> runs;
    const std::uint64_t end = idx + count;
    while (idx < end) {
        const std::uint64_t run = f.contiguousRun(idx, end - idx);
        runs.emplace_back(f.blockAt(idx), run);
        idx += run;
    }
    return runs;
}

std::vector<std::pair<ArrayBlock, std::uint64_t>>
forEachRuns(const FileLayout& f, std::uint64_t idx, std::uint64_t count)
{
    std::vector<std::pair<ArrayBlock, std::uint64_t>> runs;
    f.forEachRun(idx, count, [&](ArrayBlock lb, std::uint64_t n) {
        runs.emplace_back(lb, n);
    });
    return runs;
}

/**
 * A fragmented file whose extents partly abut: [100,+3) [103,+2)
 * abut, then a hole, [110,+1), [111,+4) abut, hole, [200,+2).
 */
FileLayout
abuttingLayout()
{
    FileLayout f;
    f.extents = {{100, 3}, {103, 2}, {110, 1}, {111, 4}, {200, 2}};
    f.finalize();
    return f;
}

TEST(FileLayout, ForEachRunMatchesBlockWalk)
{
    LayoutParams lp;
    lp.fragmentation = 0.3;
    lp.seed = 11;
    FileSystemImage img(uniformSizes(8, 40 * 4096), lp, 100000);
    std::vector<FileLayout> files = {abuttingLayout()};
    for (std::size_t i = 0; i < img.fileCount(); ++i)
        files.push_back(img.file(static_cast<FileId>(i)));

    for (FileLayout f : files) {
        const std::uint64_t n = f.blocks();
        for (int indexed = 1; indexed >= 0; --indexed) {
            if (!indexed)
                f.extentEnds.clear();  // Exercise the no-index path.
            for (std::uint64_t idx = 0; idx < n; ++idx) {
                for (std::uint64_t count = 0; idx + count <= n;
                     ++count) {
                    ASSERT_EQ(forEachRuns(f, idx, count),
                              referenceRuns(f, idx, count))
                        << "idx=" << idx << " count=" << count
                        << " indexed=" << indexed;
                }
            }
        }
    }
}

TEST(FileLayout, ForEachRunMergesAbuttingExtents)
{
    const FileLayout f = abuttingLayout();
    const std::vector<std::pair<ArrayBlock, std::uint64_t>> want = {
        {101, 4}, {110, 5}, {200, 1}};
    EXPECT_EQ(forEachRuns(f, 1, 10), want);
}

TEST(FileLayout, ForEachRunPanicsPastEndOfFile)
{
    const FileLayout f = abuttingLayout();
    EXPECT_DEATH(f.forEachRun(10, 3, [](ArrayBlock, std::uint64_t) {}),
                 "out of range");
    EXPECT_DEATH(f.forEachRun(12, 1, [](ArrayBlock, std::uint64_t) {}),
                 "out of range");
    FileLayout stale = f;
    stale.extentEnds.clear();
    EXPECT_DEATH(
        stale.forEachRun(10, 3, [](ArrayBlock, std::uint64_t) {}),
        "out of range");
}

} // namespace
} // namespace dtsim
