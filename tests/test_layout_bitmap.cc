/** @file Tests for the FOR layout bitmap. */

#include <gtest/gtest.h>

#include <vector>

#include "controller/layout_bitmap.hh"
#include "disk/disk_params.hh"
#include "sim/rng.hh"

namespace dtsim {
namespace {

TEST(LayoutBitmap, StartsAllZero)
{
    LayoutBitmap bm(1000);
    for (BlockNum b = 0; b < 1000; b += 7)
        EXPECT_FALSE(bm.get(b));
    EXPECT_EQ(bm.popcount(), 0u);
}

TEST(LayoutBitmap, SetAndClear)
{
    LayoutBitmap bm(128);
    bm.set(0, true);
    bm.set(63, true);
    bm.set(64, true);
    bm.set(127, true);
    EXPECT_TRUE(bm.get(0));
    EXPECT_TRUE(bm.get(63));
    EXPECT_TRUE(bm.get(64));
    EXPECT_TRUE(bm.get(127));
    EXPECT_EQ(bm.popcount(), 4u);
    bm.set(64, false);
    EXPECT_FALSE(bm.get(64));
    EXPECT_EQ(bm.popcount(), 3u);
}

TEST(LayoutBitmap, OutOfRangeReadsZeroWritesIgnored)
{
    LayoutBitmap bm(10);
    EXPECT_FALSE(bm.get(10));
    EXPECT_FALSE(bm.get(1000000));
    bm.set(10, true);   // Ignored.
    EXPECT_EQ(bm.popcount(), 0u);
}

TEST(LayoutBitmap, CountRunMeasuresContiguity)
{
    LayoutBitmap bm(100);
    // File occupying blocks 10..17: bits 11..17 are continuations.
    for (BlockNum b = 11; b <= 17; ++b)
        bm.set(b, true);
    // A read ending at block 10 may read ahead 7 more blocks.
    EXPECT_EQ(bm.countRun(11, 100), 7u);
    EXPECT_EQ(bm.countRun(11, 3), 3u);     // Capped.
    EXPECT_EQ(bm.countRun(18, 100), 0u);   // Next file boundary.
    EXPECT_EQ(bm.countRun(10, 100), 0u);   // Block 10 starts a file.
}

TEST(LayoutBitmap, CountRunStopsAtEndOfDisk)
{
    LayoutBitmap bm(16);
    for (BlockNum b = 0; b < 16; ++b)
        bm.set(b, true);
    EXPECT_EQ(bm.countRun(10, 100), 6u);
}

TEST(LayoutBitmap, RunAcrossWordBoundary)
{
    LayoutBitmap bm(256);
    for (BlockNum b = 60; b < 70; ++b)
        bm.set(b, true);
    EXPECT_EQ(bm.countRun(60, 256), 10u);
}

/** countRun() read bit by bit, as a reference. */
std::uint64_t
countRunByBit(const LayoutBitmap& bm, BlockNum block,
              std::uint64_t max_count)
{
    std::uint64_t n = 0;
    while (n < max_count && bm.get(block + n))
        ++n;
    return n;
}

TEST(LayoutBitmap, CountRunAtWordEdges)
{
    LayoutBitmap bm(300);
    bm.setRange(63, 66);   // Blocks 63 .. 128: three words.
    EXPECT_EQ(bm.countRun(62, 1000), 0u);
    EXPECT_EQ(bm.countRun(63, 1000), 66u);
    EXPECT_EQ(bm.countRun(64, 1000), 65u);
    EXPECT_EQ(bm.countRun(127, 1000), 2u);
    EXPECT_EQ(bm.countRun(128, 1000), 1u);
    EXPECT_EQ(bm.countRun(129, 1000), 0u);
    // Caps inside, at, and past a word boundary.
    EXPECT_EQ(bm.countRun(63, 1), 1u);
    EXPECT_EQ(bm.countRun(63, 65), 65u);
    EXPECT_EQ(bm.countRun(64, 64), 64u);
    EXPECT_EQ(bm.countRun(64, 63), 63u);
    EXPECT_EQ(bm.countRun(63, 0), 0u);
}

TEST(LayoutBitmap, CountRunStopsAtTotalBlocks)
{
    // 130 blocks: the last word holds two real bits.
    LayoutBitmap bm(130);
    bm.setRange(100, 1000);   // Clipped to 100 .. 129.
    EXPECT_EQ(bm.popcount(), 30u);
    EXPECT_EQ(bm.countRun(100, 1000), 30u);
    EXPECT_EQ(bm.countRun(129, 1000), 1u);
    EXPECT_EQ(bm.countRun(130, 1000), 0u);
    EXPECT_EQ(bm.countRun(100, 30), 30u);
    EXPECT_EQ(bm.countRun(100, 29), 29u);
    // A disk of whole words: the run ends with the last word.
    LayoutBitmap whole(128);
    whole.setRange(0, 128);
    EXPECT_EQ(whole.countRun(0, 1000), 128u);
    EXPECT_EQ(whole.countRun(64, 1000), 64u);
    EXPECT_EQ(whole.countRun(128, 1000), 0u);
}

TEST(LayoutBitmap, ReadsZeroBeyondStoredWords)
{
    // Bits near the start only: far blocks, and whole words past the
    // last set bit, read 0 and end runs.
    LayoutBitmap bm(1000000);
    bm.setRange(10, 54);   // 10 .. 63: the run fills word 0.
    EXPECT_EQ(bm.countRun(10, 1000), 54u);
    EXPECT_EQ(bm.countRun(64, 1000), 0u);
    EXPECT_EQ(bm.countRun(999999, 1000), 0u);
    EXPECT_FALSE(bm.get(64));
    EXPECT_FALSE(bm.get(999999));
    bm.set(5000, false);   // Clearing an unstored bit stores nothing.
    EXPECT_FALSE(bm.get(5000));
    bm.set(999999, true);
    EXPECT_TRUE(bm.get(999999));
    EXPECT_FALSE(bm.get(999998));
    EXPECT_EQ(bm.countRun(999999, 1000), 1u);
    EXPECT_EQ(bm.popcount(), 55u);
    // The controller's footprint is the full disk's, whatever is
    // stored.
    EXPECT_EQ(bm.sizeBytes(), 125000u);
    EXPECT_EQ(bm.totalBlocks(), 1000000u);
}

TEST(LayoutBitmap, SetRangeEdges)
{
    LayoutBitmap bm(200);
    bm.setRange(5, 0);       // Empty.
    bm.setRange(200, 10);    // Past the end.
    bm.setRange(1000, 1);
    EXPECT_EQ(bm.popcount(), 0u);
    bm.setRange(0, 1);       // One bit at a word start.
    bm.setRange(63, 1);      // One bit at a word end.
    bm.setRange(64, 64);     // Exactly one whole word.
    bm.setRange(199, ~0ULL); // Clipped count that would overflow.
    EXPECT_TRUE(bm.get(0));
    EXPECT_FALSE(bm.get(1));
    EXPECT_FALSE(bm.get(62));
    EXPECT_TRUE(bm.get(63));
    EXPECT_TRUE(bm.get(64));
    EXPECT_TRUE(bm.get(127));
    EXPECT_FALSE(bm.get(128));
    EXPECT_TRUE(bm.get(199));
    EXPECT_EQ(bm.popcount(), 67u);
}

TEST(LayoutBitmap, SetRangeAndCountRunMatchBitByBit)
{
    // Random ranges against a per-bit model, and countRun() from every
    // block and with every cap against the bit-by-bit walk.
    const std::uint64_t total = 517;
    LayoutBitmap bm(total);
    std::vector<bool> model(total, false);
    Rng rng(3);
    for (int i = 0; i < 40; ++i) {
        const BlockNum first = rng.below(total + 20);
        const std::uint64_t count = rng.below(150);
        bm.setRange(first, count);
        for (BlockNum b = first; b < first + count && b < total; ++b)
            model[b] = true;
        if (i % 4 == 3) {
            const BlockNum b = rng.below(total);
            bm.set(b, false);
            model[b] = false;
        }
    }
    std::uint64_t ones = 0;
    for (BlockNum b = 0; b < total; ++b) {
        ones += model[b];
        ASSERT_EQ(bm.get(b), model[b]) << b;
    }
    EXPECT_EQ(bm.popcount(), ones);
    for (BlockNum b = 0; b <= total + 70; ++b)
        for (std::uint64_t cap : {0u, 1u, 7u, 63u, 64u, 65u, 200u, 600u})
            ASSERT_EQ(bm.countRun(b, cap), countRunByBit(bm, b, cap))
                << "block " << b << " cap " << cap;
}

TEST(LayoutBitmap, SizeMatchesPaperOverhead)
{
    // One bit per 4 KB block of the 18 GB drive: 546 KB (0.003% of
    // the disk), as quoted in Section 4.
    DiskParams p;
    LayoutBitmap bm(p.totalBlocks());
    // 549316 bytes: the paper quotes "546 KBytes" for the same
    // drive (the small difference is KB vs KiB rounding).
    EXPECT_NEAR(static_cast<double>(bm.sizeBytes()) / 1000.0, 546.0,
                6.0);
    const double overhead = static_cast<double>(bm.sizeBytes()) /
                            static_cast<double>(p.capacityBytes);
    EXPECT_NEAR(overhead, 0.00003, 0.000002);
}

} // namespace
} // namespace dtsim
