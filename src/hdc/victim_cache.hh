/**
 * @file
 * The other HDC use the paper proposes (Section 5): "the host file
 * system can use part of the disk controller caches as an array-wide
 * victim cache for its buffer cache".
 *
 * The manager mirrors the host buffer cache with a ghost LRU: when a
 * block falls out of the host cache, pin_blk() parks it in the
 * owning controller's HDC region (unpinning the oldest victim when
 * the region is full); when the host re-reads a pinned block, the
 * controller serves it (a victim hit) and the host unpins it, since
 * the block now lives in the buffer cache again.
 *
 * The manager runs host-side and its pin/unpin commands reach the
 * controllers as deferred commands (the unified pin router), so it
 * cannot observe a pin's success synchronously. Instead it models
 * each disk's HDC capacity itself: a per-logical-disk pinned count
 * against the (uniform) controller capacity reproduces, step for
 * step, the retire-oldest-until-the-pin-sticks loop the synchronous
 * API allowed — the command stream and every counter are unchanged,
 * only the controller-side application of each command now lands
 * commandLatency() ticks later.
 */

#ifndef DTSIM_HDC_VICTIM_CACHE_HH
#define DTSIM_HDC_VICTIM_CACHE_HH

#include <cstdint>
#include <deque>
#include <list>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "array/disk_array.hh"

namespace dtsim {

/** Host-side driver of the victim-cache HDC policy. */
class VictimHdcManager
{
  public:
    /**
     * @param array Target array (its controllers need an HDC
     *        budget).
     * @param ghost_blocks Size of the mirrored host buffer cache.
     */
    VictimHdcManager(DiskArray& array, std::uint64_t ghost_blocks);

    /**
     * Observe a completed host access (call once per trace record).
     * Updates the ghost cache and issues pin/unpin commands.
     */
    void onAccess(ArrayBlock start, std::uint64_t count);

    std::uint64_t pins() const { return pins_; }
    std::uint64_t unpins() const { return unpins_; }
    std::uint64_t pinnedNow() const { return fifoSize_; }

  private:
    /** Insert one block into the ghost LRU, evicting as needed. */
    void ghostInsert(ArrayBlock block);

    /** Park an evicted block in its controller's HDC region. */
    void pinVictim(ArrayBlock block);

    /** Logical disk owning `block` (replicas pin in lockstep). */
    unsigned diskOf(ArrayBlock block) const;

    /** Drop the oldest live victim and issue its deferred unpin. */
    void retireOldest();

    DiskArray& array_;
    std::uint64_t ghostCapacity_;

    /** Per-disk HDC region capacity (uniform controllers). */
    std::uint64_t capacityBlocks_;

    /** Host-side model of each logical disk's pinned population. */
    std::vector<std::uint64_t> pinnedPerDisk_;

    std::list<ArrayBlock> ghostLru_;   ///< Front = most recent.
    std::unordered_map<ArrayBlock, std::list<ArrayBlock>::iterator>
        ghostMap_;

    /** Pinned victims in pin order (oldest first). */
    std::deque<ArrayBlock> pinFifo_;
    std::unordered_set<ArrayBlock> pinnedSet_;
    std::uint64_t fifoSize_ = 0;

    std::uint64_t pins_ = 0;
    std::uint64_t unpins_ = 0;
};

} // namespace dtsim

#endif // DTSIM_HDC_VICTIM_CACHE_HH
