/**
 * @file
 * The block-based controller cache organization introduced for FOR
 * (Section 4).
 *
 * Blocks are assigned to streams on demand from a pool of free 4 KB
 * blocks, so streams effectively get variable-size segments with
 * simple management. When the pool is exhausted, the paper's policy
 * replaces blocks MRU-first: controller caches have almost no temporal
 * locality, so a block the host has just consumed is the least likely
 * to be needed again. Blocks that were read ahead but not yet consumed
 * are protected until no consumed block remains (they then fall back
 * to FIFO order). A plain LRU mode is provided for ablation.
 *
 * Residency state lives in a pre-allocated slot slab (prev/next
 * indices + freelist) with an open-addressing block->slot table, so
 * the per-access path performs no heap allocation; the replacement
 * decisions are tick-identical to the previous std::list +
 * std::unordered_map implementation (tests/test_container_equiv.cc
 * drives both against each other).
 */

#ifndef DTSIM_CACHE_BLOCK_CACHE_HH
#define DTSIM_CACHE_BLOCK_CACHE_HH

#include <cstdint>

#include "cache/controller_cache.hh"
#include "sim/flat_table.hh"
#include "sim/slab_list.hh"

namespace dtsim {

/** Replacement policy for the block pool. */
enum class BlockPolicy { MRU, LRU };

const char* blockPolicyName(BlockPolicy p);

/** Block-pool controller cache. */
class BlockCache : public ControllerCache
{
  public:
    /**
     * @param capacity_blocks Pool size in 4 KB blocks.
     * @param policy Replacement policy (MRU per the paper).
     */
    explicit BlockCache(std::uint64_t capacity_blocks,
                        BlockPolicy policy = BlockPolicy::MRU);

    std::uint64_t lookupPrefix(BlockNum start,
                               std::uint64_t count) override;

    /**
     * Bulk lookupPrefix performs the per-block operation sequence
     * verbatim, so the blockwise probe is the same call.
     */
    std::uint64_t
    lookupPrefixBlockwise(BlockNum start, std::uint64_t count) override
    {
        return lookupPrefix(start, count);
    }

    bool contains(BlockNum block) const override;
    using ControllerCache::insertRun;
    void insertRun(BlockNum start, std::uint64_t count,
                   std::uint64_t spec_offset) override;
    void invalidateRange(BlockNum start, std::uint64_t count) override;

    std::uint64_t
    capacityBlocks() const override
    {
        return capacity_;
    }

    std::uint64_t
    usedBlocks() const override
    {
        return map_.size();
    }

    /** Single-block evictions performed so far. */
    std::uint64_t evictions() const { return evictions_; }

  private:
    /**
     * One resident block. `used` is true once the host has consumed
     * the block (it then lives on the used list, most recently
     * consumed at the front); unconsumed blocks live on the unused
     * list, oldest insertion at the front.
     */
    struct Entry
    {
        BlockNum block = 0;
        bool used = false;
        bool spec = false;  ///< read ahead speculatively, not consumed
    };

    using Ops = SlabListOps<Entry>;

    /** Evict one block according to the policy. */
    void evictOne();

    void eraseBlock(BlockNum block);

    /**
     * Debug-build structural invariants: every slot is either free or
     * on exactly one list, and the map indexes exactly the resident
     * set. Compiled out under NDEBUG.
     */
    void
    checkInvariants() const
    {
#ifndef NDEBUG
        // Free slots plus resident slots account for every slab slot,
        // so the container swap cannot silently leak capacity.
        assert(slab_.freeCount() + used_.size + unused_.size ==
               slab_.capacity());
        // The map indexes exactly the resident set.
        assert(map_.size() == used_.size + unused_.size);
#endif
    }

    std::uint64_t capacity_;
    BlockPolicy policy_;
    Slab<Entry> slab_;
    SlabList used_;     ///< Front = most recently consumed.
    SlabList unused_;   ///< Front = oldest insertion.
    /**
     * block -> slab slot, sized for twice the capacity so a full pool
     * keeps the table at most half loaded: most probes are misses
     * (insertRun and the controller's suffix walk test blocks that
     * are not cached), and a linear-probing miss scans to the next
     * empty slot.
     */
    FlatTable<std::uint32_t> map_;
    std::uint64_t evictions_ = 0;
};

} // namespace dtsim

#endif // DTSIM_CACHE_BLOCK_CACHE_HH
