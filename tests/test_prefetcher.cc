/** @file Tests for the OS prefetch model and the request coalescer. */

#include <gtest/gtest.h>

#include "fs/coalescer.hh"
#include "fs/prefetcher.hh"
#include "sim/rng.hh"

namespace dtsim {
namespace {

/** File ids the prefetcher tests use are below this. */
constexpr std::size_t kFiles = 4;

TEST(Prefetcher, NoneNeverPrefetches)
{
    Prefetcher p(kFiles, PrefetchMode::None);
    EXPECT_EQ(p.plan(1, 0, 1, 100), 0u);
    EXPECT_EQ(p.plan(1, 1, 1, 100), 0u);
}

TEST(Prefetcher, PerfectReadsToEndOfFile)
{
    Prefetcher p(kFiles, PrefetchMode::Perfect);
    EXPECT_EQ(p.plan(1, 0, 1, 10), 9u);
    EXPECT_EQ(p.plan(1, 4, 2, 10), 4u);
    EXPECT_EQ(p.plan(1, 9, 1, 10), 0u);
}

TEST(Prefetcher, SequentialWindowDoubles)
{
    // Each miss covers one block; the next miss lands right after
    // the previous access plus its prefetch. Window doubles: 1, 2,
    // 4, 8, 16, 16, ...
    Prefetcher p(kFiles, PrefetchMode::Sequential, 16);
    EXPECT_EQ(p.plan(1, 0, 1, 1000), 1u);    // Covers 0..1.
    EXPECT_EQ(p.plan(1, 2, 1, 1000), 2u);    // Covers 2..4.
    EXPECT_EQ(p.plan(1, 5, 1, 1000), 4u);    // Covers 5..9.
    EXPECT_EQ(p.plan(1, 10, 1, 1000), 8u);   // Covers 10..18.
    EXPECT_EQ(p.plan(1, 19, 1, 1000), 16u);  // Covers 19..35.
    EXPECT_EQ(p.plan(1, 36, 1, 1000), 16u);  // Capped.
}

TEST(Prefetcher, RandomAccessCollapsesWindow)
{
    Prefetcher p(kFiles, PrefetchMode::Sequential, 16);
    p.plan(1, 0, 1, 1000);    // Covers 0..1.
    p.plan(1, 2, 1, 1000);    // Covers 2..4.
    EXPECT_EQ(p.plan(1, 500, 1, 1000), 0u);   // Jump: collapse.
    // Next sequential access rebuilds from one block.
    EXPECT_EQ(p.plan(1, 501, 1, 1000), 1u);
}

TEST(Prefetcher, WindowClippedAtFileEnd)
{
    Prefetcher p(kFiles, PrefetchMode::Sequential, 16);
    EXPECT_EQ(p.plan(1, 0, 1, 4), 1u);   // Covers 0..1.
    EXPECT_EQ(p.plan(1, 2, 1, 4), 1u);   // Window 2, clipped to 1.
    EXPECT_EQ(p.plan(1, 3, 1, 4), 0u);   // Nothing left past block 3.
}

TEST(Prefetcher, FilesTrackedIndependently)
{
    Prefetcher p(kFiles, PrefetchMode::Sequential, 16);
    p.plan(1, 0, 1, 100);     // File 1: covers 0..1.
    p.plan(1, 2, 1, 100);     // File 1: covers 2..4.
    p.plan(2, 0, 1, 100);     // File 2: covers 0..1.
    EXPECT_EQ(p.plan(2, 2, 1, 100), 2u);
    EXPECT_EQ(p.plan(1, 5, 1, 100), 4u);
}

TEST(Prefetcher, ResetDropsHistory)
{
    Prefetcher p(kFiles, PrefetchMode::Sequential, 16);
    p.plan(1, 0, 1, 100);
    p.plan(1, 1, 1, 100);
    p.reset();
    EXPECT_EQ(p.plan(1, 3, 1, 100), 0u);   // Looks random now.
}

TEST(Prefetcher, ResetMatchesAFreshPlanner)
{
    // After reset() every file plans exactly as in a new planner,
    // whether or not it was seen before (a day boundary of the
    // server models relies on this).
    Prefetcher used(kFiles, PrefetchMode::Sequential, 16);
    used.plan(1, 0, 1, 100);
    used.plan(1, 2, 1, 100);
    used.plan(3, 7, 1, 100);
    used.reset();
    Prefetcher fresh(kFiles, PrefetchMode::Sequential, 16);
    for (std::uint32_t f = 0; f < kFiles; ++f) {
        for (std::uint64_t b : {0u, 2u, 5u, 40u}) {
            EXPECT_EQ(used.plan(f, b, 1, 100), fresh.plan(f, b, 1, 100))
                << "file " << f << " block " << b;
        }
    }
}

TEST(Coalescer, ZeroProbabilitySplitsEveryBlock)
{
    Rng rng(3);
    const auto sizes = coalesceRun(10, 0.0, rng);
    EXPECT_EQ(sizes.size(), 10u);
    for (auto s : sizes)
        EXPECT_EQ(s, 1u);
}

TEST(Coalescer, FullProbabilityKeepsOneRequest)
{
    Rng rng(5);
    const auto sizes = coalesceRun(10, 1.0, rng);
    ASSERT_EQ(sizes.size(), 1u);
    EXPECT_EQ(sizes[0], 10u);
}

TEST(Coalescer, SizesAlwaysSumToCount)
{
    Rng rng(7);
    for (int i = 0; i < 500; ++i) {
        const std::uint64_t n = 1 + rng.below(64);
        const double p = rng.uniform();
        const auto sizes = coalesceRun(n, p, rng);
        std::uint64_t total = 0;
        for (auto s : sizes)
            total += s;
        ASSERT_EQ(total, n);
        ASSERT_FALSE(sizes.empty());
    }
}

TEST(Coalescer, EmptyRun)
{
    Rng rng(9);
    EXPECT_TRUE(coalesceRun(0, 0.5, rng).empty());
}

TEST(Coalescer, MeanRequestCountMatchesProbability)
{
    // E[requests] = 1 + (n-1)(1-p).
    Rng rng(11);
    const std::uint64_t n = 4;
    const double p = 0.87;
    double total = 0.0;
    const int iters = 20000;
    for (int i = 0; i < iters; ++i)
        total += static_cast<double>(coalesceRun(n, p, rng).size());
    EXPECT_NEAR(total / iters, 1.0 + 3.0 * 0.13, 0.02);
}

} // namespace
} // namespace dtsim
