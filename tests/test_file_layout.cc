/** @file Tests for the file-system layout model and bitmap builder. */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "fs/file_layout.hh"
#include "sim/rng.hh"

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
        const FileLayout fl = img.file(f);
        EXPECT_EQ(fl.blocks(), 4u);
        ASSERT_EQ(fl.extentCount(), 1u);
        EXPECT_EQ(fl.extent(0).start, static_cast<ArrayBlock>(f * 4));
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
    const FileLayout f = img.file(0);
    EXPECT_GT(f.extentCount(), 1u);
    // blockAt must enumerate exactly the extents in order.
    std::uint64_t idx = 0;
    for (std::size_t x = 0; x < f.extentCount(); ++x) {
        const FileExtent e = f.extent(x);
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
const std::vector<ArenaExtent> kAbutting = {
    {100, 3}, {103, 5}, {110, 6}, {111, 10}, {200, 12}};

FileLayout
abuttingLayout()
{
    return FileLayout(kAbutting.data(), kAbutting.size());
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

    for (const FileLayout& f : files) {
        const std::uint64_t n = f.blocks();
        for (std::uint64_t idx = 0; idx < n; ++idx) {
            for (std::uint64_t count = 0; idx + count <= n; ++count) {
                ASSERT_EQ(forEachRuns(f, idx, count),
                          referenceRuns(f, idx, count))
                    << "idx=" << idx << " count=" << count;
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
    EXPECT_DEATH(f.blockAt(12), "out of range");
}

/**
 * The per-file extent-vector layout the arena replaced, kept as the
 * reference: every query walks the file's own extent list.
 */
struct RefFile
{
    std::vector<FileExtent> extents;

    std::uint64_t
    blocks() const
    {
        std::uint64_t n = 0;
        for (const FileExtent& e : extents)
            n += e.count;
        return n;
    }

    ArrayBlock
    blockAt(std::uint64_t idx) const
    {
        for (const FileExtent& e : extents) {
            if (idx < e.count)
                return e.start + idx;
            idx -= e.count;
        }
        ADD_FAILURE() << "reference blockAt past end of file";
        return 0;
    }

    std::uint64_t
    contiguousRun(std::uint64_t idx, std::uint64_t max_count) const
    {
        if (max_count == 0)
            return 0;
        const ArrayBlock lb = blockAt(idx);
        std::uint64_t run = 1;
        while (run < max_count && idx + run < blocks() &&
               blockAt(idx + run) == lb + run)
            ++run;
        return run;
    }
};

/**
 * The allocator as it was with one extent vector per file: the same
 * RNG draws in the same order, so its files must equal the arena's.
 */
std::vector<RefFile>
referenceAllocate(const std::vector<std::uint64_t>& sizes,
                  const LayoutParams& params)
{
    Rng rng(params.seed);
    std::vector<RefFile> files;
    ArrayBlock next = 0;
    for (std::uint64_t size : sizes) {
        RefFile f;
        const std::uint64_t nblocks = size == 0
            ? 1
            : (size + params.blockSize - 1) / params.blockSize;
        FileExtent cur{next, 0};
        for (std::uint64_t i = 0; i < nblocks; ++i) {
            if (i > 0 && rng.chance(params.fragmentation)) {
                f.extents.push_back(cur);
                next += params.gapBlocks;
                cur = FileExtent{next, 0};
            }
            ++cur.count;
            ++next;
        }
        f.extents.push_back(cur);
        files.push_back(std::move(f));
    }
    return files;
}

/** Figure 1's mean run length over the reference files. */
double
referenceAverageRun(const std::vector<RefFile>& files,
                    const StripingMap& striping)
{
    std::uint64_t blocks = 0;
    std::uint64_t runs = 0;
    for (const RefFile& f : files) {
        PhysicalLoc prev{};
        std::uint64_t i = 0;
        for (const FileExtent& e : f.extents) {
            for (std::uint64_t off = 0; off < e.count; ++off, ++i) {
                const PhysicalLoc loc = striping.toPhysical(e.start + off);
                if (i == 0 || !(loc.disk == prev.disk &&
                                loc.block == prev.block + 1))
                    ++runs;
                prev = loc;
                ++blocks;
            }
        }
    }
    return static_cast<double>(blocks) / static_cast<double>(runs);
}

TEST(FileLayoutArena, FuzzMatchesPerFileExtentVectors)
{
    Rng rng(0xa4e7a);
    for (int round = 0; round < 40; ++round) {
        // Random sizes, including empty and one-block files; a zero
        // gap makes some fragments abut and merge into longer runs.
        std::vector<std::uint64_t> sizes(1 + rng.below(60));
        for (std::uint64_t& sz : sizes)
            sz = rng.below(4) == 0 ? rng.below(2 * 4096)
                                   : rng.below(64 * 4096);
        LayoutParams lp;
        lp.fragmentation = static_cast<double>(rng.below(5)) / 8.0;
        lp.gapBlocks = rng.below(3);
        lp.seed = rng.next64();
        const FileSystemImage img(sizes, lp, 1ULL << 30);
        const std::vector<RefFile> ref = referenceAllocate(sizes, lp);
        ASSERT_EQ(img.fileCount(), ref.size());

        for (FileId f = 0; f < img.fileCount(); ++f) {
            const FileLayout fl = img.file(f);
            const RefFile& rf = ref[f];
            ASSERT_EQ(fl.extentCount(), rf.extents.size());
            for (std::size_t x = 0; x < rf.extents.size(); ++x) {
                ASSERT_EQ(fl.extent(x).start, rf.extents[x].start);
                ASSERT_EQ(fl.extent(x).count, rf.extents[x].count);
            }
            const std::uint64_t n = rf.blocks();
            ASSERT_EQ(fl.blocks(), n);
            for (int q = 0; q < 20; ++q) {
                const std::uint64_t idx = rng.below(n);
                const std::uint64_t count = rng.below(n - idx + 1);
                ASSERT_EQ(fl.blockAt(idx), rf.blockAt(idx));
                const std::uint64_t cap = rng.below(n + 2);
                ASSERT_EQ(fl.contiguousRun(idx, cap),
                          rf.contiguousRun(idx, cap))
                    << "file " << f << " idx " << idx << " cap " << cap;
                std::vector<std::pair<ArrayBlock, std::uint64_t>> want;
                for (std::uint64_t i = idx; i < idx + count;) {
                    const std::uint64_t run =
                        rf.contiguousRun(i, idx + count - i);
                    want.emplace_back(rf.blockAt(i), run);
                    i += run;
                }
                ASSERT_EQ(forEachRuns(fl, idx, count), want)
                    << "file " << f << " idx " << idx << " count "
                    << count;
            }
        }

        // The whole-image walks see the same extents.
        const unsigned disks = 1 + static_cast<unsigned>(rng.below(4));
        const std::uint64_t unit = 1 + rng.below(16);
        const std::uint64_t per_disk =
            (img.allocatedBlocks() / disks / unit + 2) * unit;
        const StripingMap striping(disks, unit, per_disk);
        EXPECT_DOUBLE_EQ(img.averageSequentialRun(striping),
                         referenceAverageRun(ref, striping));
        const std::vector<LayoutBitmap> maps = img.buildBitmaps(striping);
        for (const RefFile& rf : ref) {
            PhysicalLoc prev{};
            for (std::uint64_t i = 0; i < rf.blocks(); ++i) {
                const PhysicalLoc loc = striping.toPhysical(rf.blockAt(i));
                const bool continues = i > 0 && loc.disk == prev.disk &&
                                       loc.block == prev.block + 1;
                ASSERT_EQ(maps[loc.disk].get(loc.block), continues)
                    << "disk " << loc.disk << " block " << loc.block;
                prev = loc;
            }
        }
    }
}

} // namespace
} // namespace dtsim
