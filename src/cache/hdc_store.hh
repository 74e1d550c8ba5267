/**
 * @file
 * The host-managed (pinned) region of a disk controller cache
 * (Section 5).
 *
 * The store holds blocks the host has pinned with pin_blk(). Pinned
 * blocks are never replaced; writes to pinned blocks are absorbed and
 * marked dirty, and are written to the media only when the host issues
 * flush_hdc(). unpin_blk() releases a block for normal management.
 */

#ifndef DTSIM_CACHE_HDC_STORE_HH
#define DTSIM_CACHE_HDC_STORE_HH

#include <cstdint>
#include <vector>

#include "disk/geometry.hh"
#include "sim/flat_table.hh"

namespace dtsim {

/** Activity counters for the pinned region. */
struct HdcCounters
{
    std::uint64_t pins = 0;           ///< successful pin_blk calls
    std::uint64_t pinFailures = 0;    ///< rejected (full / duplicate)
    std::uint64_t unpins = 0;         ///< successful unpin_blk calls
    std::uint64_t dirtyUnpins = 0;    ///< unpins that released dirty data
    std::uint64_t absorbedWrites = 0; ///< writes absorbed by pinned blocks
    std::uint64_t flushCalls = 0;     ///< flush_hdc invocations
    std::uint64_t flushedBlocks = 0;  ///< dirty blocks handed to flush
};

/** Host-guided device cache region of one controller. */
class HdcStore
{
  public:
    /** @param capacity_blocks Pinned-region size in 4 KB blocks. */
    explicit HdcStore(std::uint64_t capacity_blocks);

    /**
     * Pin a block (pin_blk). The caller is responsible for having
     * read the block's data from the media first.
     *
     * @return false if the region is full or the block already pinned.
     */
    bool pin(BlockNum block);

    /**
     * Unpin a block (unpin_blk).
     *
     * @param[out] was_dirty Set to true if the block had absorbed
     *             writes that must now reach the media.
     * @return false if the block was not pinned.
     */
    bool unpin(BlockNum block, bool* was_dirty = nullptr);

    /** True if the block is pinned here. */
    bool contains(BlockNum block) const;

    /** The lowest pinned block >= `block`, or kNoPinned if none. */
    BlockNum nextPinned(BlockNum block) const;

    static constexpr BlockNum kNoPinned = ~BlockNum{0};

    /** Count of the leading blocks of a run that are pinned. */
    std::uint64_t prefixPinned(BlockNum start,
                               std::uint64_t count) const;

    /** True if all blocks of the run are pinned. */
    bool allPinned(BlockNum start, std::uint64_t count) const;

    /**
     * Absorb a write to a pinned block, marking it dirty.
     * @return false if the block is not pinned (caller must write
     *         to the media instead).
     */
    bool absorbWrite(BlockNum block);

    /**
     * Collect all dirty blocks and mark them clean (flush_hdc). The
     * caller issues the media writes.
     */
    std::vector<BlockNum> flush();

    std::uint64_t capacityBlocks() const { return capacity_; }
    std::uint64_t pinnedBlocks() const { return blocks_.size(); }
    std::uint64_t dirtyBlocks() const { return dirty_; }

    /** Lifetime activity counters. */
    const HdcCounters& counters() const { return counters_; }

  private:
    std::uint64_t capacity_;

    /**
     * block -> dirty flag. Open-addressing instead of unordered_map:
     * pin/unpin/absorb/contains are on the per-access controller
     * path. flush() iteration order is unspecified either way; the
     * controller sorts the returned set before building media jobs.
     */
    FlatTable<std::uint8_t> blocks_;

    /**
     * The pinned blocks in ascending order, so a run is split at its
     * pinned blocks with one search instead of a probe per block.
     * The region is small (512 blocks at 2 MiB), so keeping it sorted
     * on pin/unpin is cheap.
     */
    std::vector<BlockNum> sorted_;
    std::uint64_t dirty_ = 0;
    HdcCounters counters_;
};

} // namespace dtsim

#endif // DTSIM_CACHE_HDC_STORE_HH
