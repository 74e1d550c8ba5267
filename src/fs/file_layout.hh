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

/** A file's size and placement. */
struct FileLayout
{
    std::uint64_t sizeBytes = 0;
    std::vector<FileExtent> extents;

    /**
     * Cumulative block count through each extent, maintained by
     * finalize(). Lets blocks() read the total and blockAt() binary
     * search instead of walking the extent list; both fall back to
     * the walk when the index is absent or stale.
     */
    std::vector<std::uint64_t> extentEnds;

    /** Total block count, cached by finalize() (0 until then). */
    std::uint64_t blockCount = 0;

    /** (Re)build extentEnds/blockCount after extents change. */
    void finalize();

    /**
     * Index of the extent holding block `idx` (needs extentEnds).
     * Blocks of the first extent are answered without reading
     * extentEnds, so the common case touches one array.
     */
    std::size_t extentIndex(std::uint64_t idx) const;

    /** Panic on a block index past the end of the file. */
    [[noreturn]] static void outOfRange();

    /** File length in blocks (hot: once per generated access). */
    std::uint64_t
    blocks() const
    {
        if (extentEnds.size() == extents.size())
            return blockCount;
        std::uint64_t n = 0;
        for (const FileExtent& e : extents)
            n += e.count;
        return n;
    }

    /** Logical array block holding file block `idx`. */
    ArrayBlock blockAt(std::uint64_t idx) const;

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
};

template <typename Fn>
void
FileLayout::forEachRun(std::uint64_t idx, std::uint64_t count,
                       Fn&& fn) const
{
    if (count == 0)
        return;
    const std::uint64_t end = idx + count;
    if (extentEnds.size() != extents.size()) {
        // No index built: walk run by run.
        while (idx < end) {
            const std::uint64_t run = contiguousRun(idx, end - idx);
            fn(blockAt(idx), run);
            idx += run;
        }
        return;
    }
    if (end > blockCount || end < idx)
        outOfRange();
    std::size_t e = extentIndex(idx);
    std::uint64_t off = idx - (e == 0 ? 0 : extentEnds[e - 1]);
    while (idx < end) {
        const ArrayBlock lb = extents[e].start + off;
        std::uint64_t run = extents[e].count - off;
        // Merge extents that happen to abut physically.
        while (run < end - idx && e + 1 < extents.size() &&
               extents[e + 1].start ==
                   extents[e].start + extents[e].count) {
            ++e;
            run += extents[e].count;
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

    std::size_t fileCount() const { return files_.size(); }
    const FileLayout& file(FileId f) const { return files_.at(f); }
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
    std::vector<FileLayout> files_;
    std::uint64_t nextFree_ = 0;
    std::uint64_t dataBlocks_ = 0;
};

} // namespace dtsim

#endif // DTSIM_FS_FILE_LAYOUT_HH
