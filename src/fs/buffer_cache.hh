/**
 * @file
 * The host's file-system buffer cache, used to turn file-level server
 * workloads into the disk-level miss traces the controller study
 * consumes (Section 6.3's instrumented-kernel methodology).
 *
 * The cache is an LRU over logical array blocks. Reads miss or hit;
 * writes are absorbed dirty (write-back) and reach the disk when a
 * dirty block is evicted or at the periodic sync, merging repeated
 * writes to the same block exactly as the paper observes (34% write
 * requests becoming 20% write accesses for the file server).
 *
 * The LRU is a pre-allocated slot slab plus an open-addressing
 * block->slot table (capacity is fixed at construction), so the
 * per-access path -- millions of lookups per generated server trace --
 * performs no heap allocation. Decisions are tick-identical to the
 * previous std::list + std::unordered_map implementation.
 */

#ifndef DTSIM_FS_BUFFER_CACHE_HH
#define DTSIM_FS_BUFFER_CACHE_HH

#include <cstdint>
#include <vector>

#include "array/striping.hh"
#include "sim/flat_table.hh"
#include "sim/slab_list.hh"

namespace dtsim {

/** Statistics of a buffer cache instance. */
struct BufferCacheStats
{
    std::uint64_t readLookups = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeLookups = 0;
    std::uint64_t writeMerges = 0;   ///< Writes absorbed into dirty blocks.
    std::uint64_t evictions = 0;
    std::uint64_t dirtyWritebacks = 0;

    /** Add another cache's counters (caches that split one stream). */
    BufferCacheStats&
    operator+=(const BufferCacheStats& o)
    {
        readLookups += o.readLookups;
        readMisses += o.readMisses;
        writeLookups += o.writeLookups;
        writeMerges += o.writeMerges;
        evictions += o.evictions;
        dirtyWritebacks += o.dirtyWritebacks;
        return *this;
    }

    /** Fraction of read lookups that hit. */
    double
    readHitRate() const
    {
        return readLookups
                   ? 1.0 - static_cast<double>(readMisses) /
                               static_cast<double>(readLookups)
                   : 0.0;
    }

    /** Fraction of write lookups absorbed into already-dirty blocks. */
    double
    writeMergeRate() const
    {
        return writeLookups ? static_cast<double>(writeMerges) /
                                  static_cast<double>(writeLookups)
                            : 0.0;
    }
};

/** Host buffer cache (LRU, write-back). */
class BufferCache
{
  public:
    /** @param capacity_blocks Cache size in 4 KB blocks. */
    explicit BufferCache(std::uint64_t capacity_blocks);

    /**
     * Look up a block for reading and update recency.
     * @return true on hit.
     */
    bool readHit(ArrayBlock block);

    /**
     * Install a block just read from disk (also used for read-ahead
     * installs). May evict; a dirty eviction is appended to
     * `writebacks`.
     */
    void install(ArrayBlock block, std::vector<ArrayBlock>& writebacks);

    /**
     * Write a block: installs it dirty (write-back).
     * @return true if the block was already cached (write merged).
     */
    bool write(ArrayBlock block, std::vector<ArrayBlock>& writebacks);

    /**
     * Collect and clean all dirty blocks (periodic sync).
     */
    std::vector<ArrayBlock> sync();

    /**
     * Drop the entire cache contents (e.g. nightly batch jobs
     * evicting the day's working set).
     *
     * @return The dirty blocks that must reach the disk.
     */
    std::vector<ArrayBlock> dropAll();

    /**
     * Hint that `block` will be looked up soon: start loading its
     * hash slot into the CPU cache. Changes no cache state.
     */
    void prefetch(ArrayBlock block) const { map_.prefetch(block); }

    bool contains(ArrayBlock block) const;
    std::uint64_t size() const { return map_.size(); }
    std::uint64_t capacity() const { return capacity_; }
    const BufferCacheStats& stats() const { return stats_; }

  private:
    /**
     * A cached block, packed into one word so a slab node is 16
     * bytes (block numbers stay far below 2^63).
     */
    struct Entry
    {
        ArrayBlock block : 63 = 0;
        ArrayBlock dirty : 1 = 0;
    };
    static_assert(sizeof(Entry) == sizeof(ArrayBlock));

    using Ops = SlabListOps<Entry>;

    void evictOne(std::vector<ArrayBlock>& writebacks);

    /** Debug-build slab/map accounting invariants (see BlockCache). */
    void
    checkInvariants() const
    {
#ifndef NDEBUG
        assert(slab_.freeCount() + lru_.size == slab_.capacity());
        assert(map_.size() == lru_.size);
#endif
    }

    std::uint64_t capacity_;
    Slab<Entry> slab_;
    SlabList lru_;  ///< Front = most recently used.
    FlatTable<std::uint32_t> map_;  ///< block -> slab slot
    std::uint64_t dirty_ = 0;  ///< dirty entries (sync early-exit)
    BufferCacheStats stats_;
};

} // namespace dtsim

#endif // DTSIM_FS_BUFFER_CACHE_HH
