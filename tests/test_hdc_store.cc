/** @file Tests for the HDC pinned store and its command semantics. */

#include <gtest/gtest.h>

#include <algorithm>

#include "cache/hdc_store.hh"
#include "sim/rng.hh"

namespace dtsim {
namespace {

TEST(HdcStore, PinAndLookup)
{
    HdcStore h(4);
    EXPECT_TRUE(h.pin(10));
    EXPECT_TRUE(h.contains(10));
    EXPECT_FALSE(h.contains(11));
    EXPECT_EQ(h.pinnedBlocks(), 1u);
}

TEST(HdcStore, PinRespectsCapacity)
{
    HdcStore h(2);
    EXPECT_TRUE(h.pin(1));
    EXPECT_TRUE(h.pin(2));
    EXPECT_FALSE(h.pin(3));
    EXPECT_EQ(h.pinnedBlocks(), 2u);
}

TEST(HdcStore, DoublePinFails)
{
    HdcStore h(4);
    EXPECT_TRUE(h.pin(5));
    EXPECT_FALSE(h.pin(5));
    EXPECT_EQ(h.pinnedBlocks(), 1u);
}

TEST(HdcStore, UnpinReleasesSpace)
{
    HdcStore h(1);
    EXPECT_TRUE(h.pin(1));
    EXPECT_FALSE(h.pin(2));
    EXPECT_TRUE(h.unpin(1));
    EXPECT_TRUE(h.pin(2));
}

TEST(HdcStore, UnpinReportsDirty)
{
    HdcStore h(4);
    h.pin(1);
    h.pin(2);
    h.absorbWrite(1);
    bool dirty = false;
    EXPECT_TRUE(h.unpin(1, &dirty));
    EXPECT_TRUE(dirty);
    EXPECT_TRUE(h.unpin(2, &dirty));
    EXPECT_FALSE(dirty);
    EXPECT_FALSE(h.unpin(3, &dirty));
}

TEST(HdcStore, AbsorbWriteOnlyWhenPinned)
{
    HdcStore h(4);
    h.pin(1);
    EXPECT_TRUE(h.absorbWrite(1));
    EXPECT_FALSE(h.absorbWrite(2));
    EXPECT_EQ(h.dirtyBlocks(), 1u);
}

TEST(HdcStore, RepeatedWritesStayOneDirtyBlock)
{
    HdcStore h(4);
    h.pin(1);
    h.absorbWrite(1);
    h.absorbWrite(1);
    h.absorbWrite(1);
    EXPECT_EQ(h.dirtyBlocks(), 1u);
}

TEST(HdcStore, FlushReturnsAndCleansDirty)
{
    HdcStore h(8);
    for (BlockNum b : {1, 3, 5, 7})
        h.pin(b);
    h.absorbWrite(3);
    h.absorbWrite(7);
    auto dirty = h.flush();
    std::sort(dirty.begin(), dirty.end());
    EXPECT_EQ(dirty, (std::vector<BlockNum>{3, 7}));
    EXPECT_EQ(h.dirtyBlocks(), 0u);
    EXPECT_TRUE(h.flush().empty());
    // Still pinned after flush.
    EXPECT_TRUE(h.contains(3));
}

TEST(HdcStore, PrefixPinned)
{
    HdcStore h(8);
    h.pin(10);
    h.pin(11);
    h.pin(12);
    h.pin(14);
    EXPECT_EQ(h.prefixPinned(10, 5), 3u);
    EXPECT_EQ(h.prefixPinned(13, 2), 0u);
    EXPECT_TRUE(h.allPinned(10, 3));
    EXPECT_FALSE(h.allPinned(10, 4));
}

TEST(HdcStore, NextPinned)
{
    HdcStore h(8);
    EXPECT_EQ(h.nextPinned(0), HdcStore::kNoPinned);
    h.pin(14);
    h.pin(10);
    EXPECT_EQ(h.nextPinned(0), 10u);
    EXPECT_EQ(h.nextPinned(10), 10u);
    EXPECT_EQ(h.nextPinned(11), 14u);
    EXPECT_EQ(h.nextPinned(15), HdcStore::kNoPinned);
    h.unpin(10);
    EXPECT_EQ(h.nextPinned(0), 14u);
}

TEST(HdcStore, NextPinnedAgreesWithContainsUnderChurn)
{
    // nextPinned(b) must be the first block at or after b that
    // contains() reports, through any sequence of pins (some
    // rejected: full or duplicate) and unpins (some of absent
    // blocks).
    constexpr std::uint64_t kCapacity = 24;
    constexpr BlockNum kSpace = 128;
    for (std::uint64_t seed : {71u, 72u, 73u}) {
        HdcStore h(kCapacity);
        Rng rng(seed);
        for (int op = 0; op < 5000; ++op) {
            const BlockNum b = rng.below(kSpace);
            if (rng.below(5) < 3)
                h.pin(b);
            else
                h.unpin(b);
            const BlockNum q = rng.below(kSpace + 8);
            BlockNum want = q;
            while (want < kSpace && !h.contains(want))
                ++want;
            ASSERT_EQ(h.nextPinned(q),
                      want < kSpace ? want : HdcStore::kNoPinned)
                << "op " << op << " seed " << seed << " block " << q;
        }
    }
}

TEST(HdcStore, ZeroCapacityPinsNothing)
{
    HdcStore h(0);
    EXPECT_FALSE(h.pin(1));
    EXPECT_EQ(h.capacityBlocks(), 0u);
}

} // namespace
} // namespace dtsim
