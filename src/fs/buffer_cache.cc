#include "fs/buffer_cache.hh"

#include "sim/logging.hh"

namespace dtsim {

BufferCache::BufferCache(std::uint64_t capacity_blocks)
    : capacity_(capacity_blocks),
      slab_(static_cast<std::uint32_t>(capacity_blocks)),
      map_(capacity_blocks)
{
    if (capacity_blocks == 0)
        fatal("BufferCache: capacity must be > 0");
    if (capacity_blocks >= kNullSlot)
        fatal("BufferCache: capacity %llu exceeds the slab slot space",
              static_cast<unsigned long long>(capacity_blocks));
}

bool
BufferCache::readHit(ArrayBlock block)
{
    ++stats_.readLookups;
    const std::uint32_t* slot = map_.find(block);
    if (!slot) {
        ++stats_.readMisses;
        return false;
    }
    Ops::moveToFront(slab_, lru_, *slot);
    return true;
}

void
BufferCache::evictOne(std::vector<ArrayBlock>& writebacks)
{
    const std::uint32_t n = lru_.tail;
    const Entry victim = slab_[n];
    Ops::unlink(slab_, lru_, n);
    slab_.release(n);
    map_.erase(victim.block);
    ++stats_.evictions;
    if (victim.dirty) {
        --dirty_;
        writebacks.push_back(victim.block);
        ++stats_.dirtyWritebacks;
    }
}

void
BufferCache::install(ArrayBlock block,
                     std::vector<ArrayBlock>& writebacks)
{
    const std::uint32_t* slot = map_.find(block);
    if (slot) {
        Ops::moveToFront(slab_, lru_, *slot);
        return;
    }
    assert(block >> 63 == 0 && "block does not fit an Entry");
    if (map_.size() >= capacity_)
        evictOne(writebacks);
    const std::uint32_t n = slab_.allocate();
    slab_[n] = Entry{block, false};
    Ops::pushFront(slab_, lru_, n);
    map_.insert(block, n);
    checkInvariants();
}

bool
BufferCache::write(ArrayBlock block,
                   std::vector<ArrayBlock>& writebacks)
{
    ++stats_.writeLookups;
    const std::uint32_t* slot = map_.find(block);
    if (slot) {
        Entry& e = slab_[*slot];
        if (e.dirty)
            ++stats_.writeMerges;
        else
            ++dirty_;
        e.dirty = true;
        Ops::moveToFront(slab_, lru_, *slot);
        return true;
    }
    assert(block >> 63 == 0 && "block does not fit an Entry");
    if (map_.size() >= capacity_)
        evictOne(writebacks);
    const std::uint32_t n = slab_.allocate();
    slab_[n] = Entry{block, true};
    ++dirty_;
    Ops::pushFront(slab_, lru_, n);
    map_.insert(block, n);
    checkInvariants();
    return false;
}

std::vector<ArrayBlock>
BufferCache::sync()
{
    std::vector<ArrayBlock> dirty;
    dirty.reserve(dirty_);
    // Walk MRU -> LRU, stopping once every dirty entry is collected:
    // the order matches the full walk, and in steady state the dirty
    // set is tiny relative to the list.
    for (std::uint32_t n = lru_.head;
         dirty_ != 0 && n != kNullSlot; n = slab_.nextOf(n)) {
        Entry& e = slab_[n];
        if (e.dirty) {
            dirty.push_back(e.block);
            e.dirty = false;
            --dirty_;
        }
    }
    return dirty;
}

std::vector<ArrayBlock>
BufferCache::dropAll()
{
    std::vector<ArrayBlock> dirty = sync();
    // Slot numbering is internal: free the whole slab in one pass
    // instead of unlinking the LRU node by node.
    slab_.reset();
    lru_ = SlabList{};
    map_.clear();
    checkInvariants();
    return dirty;
}

bool
BufferCache::contains(ArrayBlock block) const
{
    return map_.contains(block);
}

} // namespace dtsim
