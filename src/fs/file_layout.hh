/**
 * @file
 * The host file system's on-disk layout model.
 *
 * Files are allocated in the array's logical block space by a
 * sequential extent allocator with a tunable fragmentation degree: at
 * each intra-file block boundary the next block is displaced with the
 * given probability, breaking physical contiguity (Section 4,
 * Figure 1). The image also produces the per-disk FOR layout bitmaps,
 * which is exactly the file-system information the paper's controller
 * consumes.
 */

#ifndef DTSIM_FS_FILE_LAYOUT_HH
#define DTSIM_FS_FILE_LAYOUT_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "array/striping.hh"
#include "controller/layout_bitmap.hh"
#include "sim/rng.hh"

namespace dtsim {

/** Index of a file in the image. */
using FileId = std::uint32_t;

/** One physically contiguous piece of a file (logical blocks). */
struct FileExtent
{
    ArrayBlock start;
    std::uint64_t count;
};

/**
 * An extent as the image stores it: its first logical block and the
 * file's cumulative block count through it. The extent's length is
 * `end` minus the previous extent's `end` (0 for a file's first).
 */
struct ArenaExtent
{
    ArrayBlock start;
    std::uint64_t end;
};

/**
 * A file's placement: a view of its run of extents in the image's
 * arena. Cheap to copy; valid while the image (or whatever array of
 * ArenaExtent it views) lives.
 */
class FileLayout
{
  public:
    /** View `count` extents starting at `first`. */
    FileLayout(const ArenaExtent* first, std::size_t count)
        : ext_(first), n_(count)
    {
    }

    std::size_t extentCount() const { return n_; }

    /** Extent `e` of the file, in file order. */
    FileExtent
    extent(std::size_t e) const
    {
        const std::uint64_t base = e == 0 ? 0 : ext_[e - 1].end;
        return FileExtent{ext_[e].start, ext_[e].end - base};
    }

    /** File length in blocks. */
    std::uint64_t
    blocks() const
    {
        return n_ == 0 ? 0 : ext_[n_ - 1].end;
    }

    /** Logical array block holding file block `idx`. */
    ArrayBlock
    blockAt(std::uint64_t idx) const
    {
        const std::size_t e = extentIndex(idx);
        const std::uint64_t base = e == 0 ? 0 : ext_[e - 1].end;
        return ext_[e].start + (idx - base);
    }

    /**
     * Length of the longest physically contiguous run of file blocks
     * starting at `idx`, capped at `max_count`. Equivalent to probing
     * blockAt(idx + k) == blockAt(idx) + k block by block (adjacent
     * extents that happen to abut are merged), but O(extents spanned).
     */
    std::uint64_t contiguousRun(std::uint64_t idx,
                                std::uint64_t max_count) const;

    /**
     * Visit file blocks [idx, idx+count) as physically contiguous
     * runs, calling fn(first_logical_block, run_length) for each in
     * file order. The runs are exactly those of the blockAt() +
     * contiguousRun() walk (abutting extents merge), found in one
     * pass over the extents. Panics if the range passes the end of
     * the file.
     */
    template <typename Fn>
    void forEachRun(std::uint64_t idx, std::uint64_t count,
                    Fn&& fn) const;

  private:
    /**
     * Index of the extent holding block `idx`; panics past the end of
     * the file. Blocks of the first extent are answered from it
     * alone, so the common case touches one extent.
     */
    std::size_t extentIndex(std::uint64_t idx) const;

    /** True when extent `e + 1` starts where extent `e` ends. */
    bool
    abutsNext(std::size_t e) const
    {
        return e + 1 < n_ &&
               ext_[e + 1].start == ext_[e].start + extent(e).count;
    }

    /** Panic on a block index past the end of the file. */
    [[noreturn]] static void outOfRange();

    const ArenaExtent* ext_;
    std::size_t n_;
};

template <typename Fn>
void
FileLayout::forEachRun(std::uint64_t idx, std::uint64_t count,
                       Fn&& fn) const
{
    if (count == 0)
        return;
    const std::uint64_t end = idx + count;
    if (end > blocks() || end < idx)
        outOfRange();
    std::size_t e = extentIndex(idx);
    std::uint64_t off = idx - (e == 0 ? 0 : ext_[e - 1].end);
    while (idx < end) {
        const ArrayBlock lb = ext_[e].start + off;
        std::uint64_t run = ext_[e].end - idx;
        // Merge extents that happen to abut physically.
        while (run < end - idx && abutsNext(e)) {
            ++e;
            run += extent(e).count;
        }
        run = std::min(run, end - idx);
        fn(lb, run);
        idx += run;
        ++e;  // An uncapped run ends exactly at extent e's end.
        off = 0;
    }
}

/** Parameters of an image build. */
struct LayoutParams
{
    std::uint32_t blockSize = 4096;

    /**
     * Probability that an intra-file block boundary breaks physical
     * contiguity (0 = perfectly sequential layout).
     */
    double fragmentation = 0.0;

    /** Blocks skipped at each break (holes stay unused). */
    std::uint64_t gapBlocks = 1;

    std::uint64_t seed = 42;
};

/**
 * The set of files laid out on the array.
 */
class FileSystemImage
{
  public:
    /**
     * Allocate the given files.
     *
     * @param file_sizes_bytes Size of each file (rounded up to
     *        blocks; zero-byte files occupy one block).
     * @param params Allocator knobs.
     * @param total_blocks Logical capacity; allocation past it fails.
     */
    FileSystemImage(const std::vector<std::uint64_t>& file_sizes_bytes,
                    const LayoutParams& params,
                    std::uint64_t total_blocks);

    std::size_t fileCount() const { return fileFirst_.size() - 1; }

    /** File `f`'s placement (throws std::out_of_range past the end). */
    FileLayout
    file(FileId f) const
    {
        const std::size_t last = fileFirst_.at(std::size_t{f} + 1);
        const std::size_t first = fileFirst_[f];
        return FileLayout(extents_.data() + first, last - first);
    }

    std::uint32_t blockSize() const { return params_.blockSize; }

    /** Blocks consumed including fragmentation holes. */
    std::uint64_t allocatedBlocks() const { return nextFree_; }

    /** Blocks actually holding file data. */
    std::uint64_t dataBlocks() const { return dataBlocks_; }

    /**
     * Build the per-disk FOR bitmaps for a striping layout: bit b of
     * disk d is 1 iff local block b on d holds the file block that
     * logically continues the file block held by local block b-1.
     */
    std::vector<LayoutBitmap>
    buildBitmaps(const StripingMap& striping) const;

    /**
     * Mean physical run length (in blocks) across all files under the
     * given striping: the "average sequential read" of Figure 1. A run
     * is a maximal sequence of file blocks that are physically
     * consecutive on one disk.
     */
    double averageSequentialRun(const StripingMap& striping) const;

  private:
    LayoutParams params_;

    /** Every file's extents, file after file, in one array. */
    std::vector<ArenaExtent> extents_;

    /**
     * File f's extents are extents_[fileFirst_[f], fileFirst_[f+1]);
     * fileCount() + 1 entries.
     */
    std::vector<std::size_t> fileFirst_;
    std::uint64_t nextFree_ = 0;
    std::uint64_t dataBlocks_ = 0;
};

} // namespace dtsim

#endif // DTSIM_FS_FILE_LAYOUT_HH
