/**
 * @file
 * The FOR layout bitmap (Section 4).
 *
 * One bit per disk block: bit b is 1 iff block b is the logical
 * continuation, within a file, of block b-1 on the same disk. The
 * controller counts consecutive 1-bits after a request to bound its
 * read-ahead at the end of the file's physically-contiguous extent.
 * For the default 18 GB drive with 4 KB blocks the bitmap occupies
 * 546 KB of controller memory (0.003% of disk space). The host's copy
 * reserves the full disk's words but stores (zero-fills and touches)
 * only those up to its highest set bit, since a file system rarely
 * reaches the end of the disk; sizeBytes() still reports the
 * controller's full-disk size.
 */

#ifndef DTSIM_CONTROLLER_LAYOUT_BITMAP_HH
#define DTSIM_CONTROLLER_LAYOUT_BITMAP_HH

#include <cstdint>
#include <vector>

#include "disk/geometry.hh"

namespace dtsim {

/** Per-disk file-layout continuation bitmap. */
class LayoutBitmap
{
  public:
    /** All bits start 0 (no continuations); nothing is stored. */
    explicit LayoutBitmap(std::uint64_t total_blocks);

    /** Set/clear the continuation bit of a block (ignored past the
     *  end of the disk). */
    void set(BlockNum block, bool continuation);

    /** Set the bits of blocks [first, first + count), clipped at the
     *  end of the disk. */
    void setRange(BlockNum first, std::uint64_t count);

    /** Continuation bit of a block; out-of-range reads are 0. */
    bool get(BlockNum block) const;

    /**
     * Count consecutive continuation bits starting at `block`:
     * the number of blocks at and after `block` that a FOR read-ahead
     * beginning there may fetch, capped at `max_count`.
     */
    std::uint64_t countRun(BlockNum block,
                           std::uint64_t max_count) const;

    std::uint64_t totalBlocks() const { return totalBlocks_; }

    /** Memory footprint of the controller's full-disk bitmap in
     *  bytes. */
    std::uint64_t
    sizeBytes() const
    {
        return (totalBlocks_ + 7) / 8;
    }

    /** Number of set bits (for tests and reporting). */
    std::uint64_t popcount() const;

  private:
    /** Store at least `words` words (new ones all 0). */
    void grow(std::uint64_t words);

    std::uint64_t totalBlocks_;

    /** Bits 0 .. 64 * size() - 1; every later bit is 0. */
    std::vector<std::uint64_t> words_;
};

} // namespace dtsim

#endif // DTSIM_CONTROLLER_LAYOUT_BITMAP_HH
