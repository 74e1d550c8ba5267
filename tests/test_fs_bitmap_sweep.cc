/**
 * @file
 * Property sweep: for any (striping unit, disk count, fragmentation)
 * combination, the FOR bitmap must agree with the image layout --
 * a bit is set iff the block continues its file on the same disk --
 * and FOR read-ahead runs must never cross into another file's data.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "fs/file_layout.hh"
#include "sim/rng.hh"

namespace dtsim {
namespace {

using SweepParam = std::tuple<unsigned, std::uint64_t, double>;

class BitmapSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(BitmapSweep, BitmapAgreesWithLayout)
{
    const auto [disks, unit_blocks, frag] = GetParam();

    LayoutParams lp;
    lp.fragmentation = frag;
    lp.seed = 1234;
    Rng rng(99);
    std::vector<std::uint64_t> sizes;
    for (int i = 0; i < 3000; ++i)
        sizes.push_back((1 + rng.below(16)) * 4096);

    const std::uint64_t per_disk = 1 << 20;
    FileSystemImage img(sizes, lp, disks * per_disk);
    StripingMap striping(disks, unit_blocks, per_disk);
    const auto maps = img.buildBitmaps(striping);
    ASSERT_EQ(maps.size(), disks);

    // Reconstruct ground truth: for every file block, is it the
    // same-disk physical successor of its file predecessor?
    std::vector<std::vector<bool>> truth(
        disks, std::vector<bool>(per_disk, false));
    for (FileId f = 0; f < img.fileCount(); ++f) {
        const FileLayout fl = img.file(f);
        const std::uint64_t n = fl.blocks();
        PhysicalLoc prev{};
        for (std::uint64_t i = 0; i < n; ++i) {
            const PhysicalLoc loc =
                striping.toPhysical(fl.blockAt(i));
            if (i > 0 && loc.disk == prev.disk &&
                loc.block == prev.block + 1)
                truth[loc.disk][loc.block] = true;
            prev = loc;
        }
    }

    for (unsigned d = 0; d < disks; ++d) {
        // popcount equality first (cheap), then spot-check bits.
        std::uint64_t expected = 0;
        for (std::uint64_t b = 0; b < per_disk; ++b)
            expected += truth[d][b];
        ASSERT_EQ(maps[d].popcount(), expected) << "disk " << d;
        for (std::uint64_t b = 0; b < per_disk; b += 97)
            ASSERT_EQ(maps[d].get(b), truth[d][b])
                << "disk " << d << " block " << b;
    }

    // FOR runs never cross file boundaries: starting right after any
    // file's first block, the run ends at or before the file's
    // physically-contiguous prefix on that disk.
    for (FileId f = 0; f < img.fileCount(); f += 37) {
        const FileLayout fl = img.file(f);
        const PhysicalLoc first = striping.toPhysical(fl.blockAt(0));
        const std::uint64_t run =
            maps[first.disk].countRun(first.block + 1, 1 << 20);
        // The run's blocks must all belong to this file's
        // contiguous prefix.
        for (std::uint64_t k = 0; k < run; ++k) {
            const std::uint64_t idx = k + 1;
            ASSERT_LT(idx, fl.blocks());
            ASSERT_EQ(striping.toPhysical(fl.blockAt(idx)),
                      (PhysicalLoc{first.disk,
                                   first.block + 1 + k}));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, BitmapSweep,
    ::testing::Combine(::testing::Values(1u, 2u, 8u),
                       ::testing::Values(1ull, 4ull, 32ull),
                       ::testing::Values(0.0, 0.05, 0.3)));

using ReferenceParam = std::tuple<std::uint64_t, unsigned, double>;

class BitmapReference : public ::testing::TestWithParam<ReferenceParam>
{
};

TEST_P(BitmapReference, MatchesPerBlockWalk)
{
    const auto [unit_blocks, disks, frag] = GetParam();

    // 1001 blocks per disk is no multiple of any unit above 1, so
    // each disk has a trailing partial unit. The files overfill the
    // array by ~10%: their last blocks map past the end of the disks
    // and must be dropped, as LayoutBitmap::set() drops them. A gap
    // of (disks - 1) units puts an extent that ends a unit right
    // after its predecessor on the same disk: a continuation across
    // an extent boundary.
    const std::uint64_t per_disk = 1001;
    const std::uint64_t total = disks * per_disk;
    LayoutParams lp;
    lp.fragmentation = frag;
    lp.gapBlocks = disks > 1 ? (disks - 1) * unit_blocks : 1;
    lp.seed = 77;
    const double spread =
        1.0 + frag * static_cast<double>(lp.gapBlocks);
    const auto want_blocks = static_cast<std::uint64_t>(
        1.1 * static_cast<double>(total) / spread);
    Rng rng(5);
    std::vector<std::uint64_t> sizes;
    for (std::uint64_t n = 0; n < want_blocks;) {
        const std::uint64_t b = 1 + rng.below(16);
        sizes.push_back(b * 4096);
        n += b;
    }
    FileSystemImage img(sizes, lp, std::uint64_t{1} << 40);
    StripingMap striping(disks, unit_blocks, per_disk);
    const auto maps = img.buildBitmaps(striping);
    ASSERT_EQ(maps.size(), disks);

    // The reference: one toPhysical() per file block.
    std::vector<std::vector<bool>> truth(
        disks, std::vector<bool>(per_disk, false));
    for (FileId f = 0; f < img.fileCount(); ++f) {
        PhysicalLoc prev{};
        std::uint64_t i = 0;
        const FileLayout fl = img.file(f);
        for (std::size_t x = 0; x < fl.extentCount(); ++x) {
            const FileExtent e = fl.extent(x);
            for (std::uint64_t off = 0; off < e.count; ++off, ++i) {
                const PhysicalLoc loc =
                    striping.toPhysical(e.start + off);
                if (i > 0 && loc.disk == prev.disk &&
                    loc.block == prev.block + 1 &&
                    loc.block < per_disk)
                    truth[loc.disk][loc.block] = true;
                prev = loc;
            }
        }
    }

    for (unsigned d = 0; d < disks; ++d) {
        const LayoutBitmap& bm = maps[d];
        ASSERT_EQ(bm.totalBlocks(), per_disk);
        EXPECT_EQ(bm.sizeBytes(), (per_disk + 7) / 8);
        std::uint64_t expected = 0;
        for (std::uint64_t b = 0; b < per_disk; ++b) {
            expected += truth[d][b];
            ASSERT_EQ(bm.get(b), truth[d][b])
                << "disk " << d << " block " << b;
        }
        EXPECT_EQ(bm.popcount(), expected) << "disk " << d;
        EXPECT_FALSE(bm.get(per_disk));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Units, BitmapReference,
    ::testing::Combine(::testing::Values(1ull, 2ull, 3ull, 8ull, 64ull),
                       ::testing::Values(1u, 2u, 3u, 8u),
                       ::testing::Values(0.0, 0.3)));

} // namespace
} // namespace dtsim
