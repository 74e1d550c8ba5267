#include "cache/block_cache.hh"

#include <cassert>

#include "sim/logging.hh"

namespace dtsim {

const char*
blockPolicyName(BlockPolicy p)
{
    switch (p) {
      case BlockPolicy::MRU: return "MRU";
      case BlockPolicy::LRU: return "LRU";
    }
    return "?";
}

BlockCache::BlockCache(std::uint64_t capacity_blocks, BlockPolicy policy)
    : capacity_(capacity_blocks), policy_(policy),
      slab_(static_cast<std::uint32_t>(capacity_blocks)),
      map_(2 * capacity_blocks)
{
    if (capacity_blocks == 0)
        fatal("BlockCache: capacity must be > 0");
    if (capacity_blocks >= kNullSlot)
        fatal("BlockCache: capacity %llu exceeds the slab slot space",
              static_cast<unsigned long long>(capacity_blocks));
}

bool
BlockCache::contains(BlockNum block) const
{
    return map_.contains(block);
}

std::uint64_t
BlockCache::lookupPrefix(BlockNum start, std::uint64_t count)
{
    std::uint64_t hits = 0;
    while (hits < count) {
        const std::uint32_t* slot = map_.find(start + hits);
        if (!slot)
            break;
        // Mark as consumed: move to the front of the used list.
        const std::uint32_t n = *slot;
        Entry& e = slab_[n];
        if (e.spec) {
            e.spec = false;
            ++ra_.specUsed;
        }
        if (e.used) {
            Ops::moveToFront(slab_, used_, n);
        } else {
            Ops::unlink(slab_, unused_, n);
            e.used = true;
            Ops::pushFront(slab_, used_, n);
        }
        ++hits;
    }
    checkInvariants();
    return hits;
}

void
BlockCache::evictOne()
{
    ++evictions_;
    if (policy_ == BlockPolicy::MRU) {
        // Most recently consumed block first; if nothing has been
        // consumed yet, fall back to the oldest read-ahead block.
        if (!used_.empty()) {
            const std::uint32_t n = used_.head;
            Ops::unlink(slab_, used_, n);
            map_.erase(slab_[n].block);
            slab_.release(n);
            return;
        }
        const std::uint32_t n = unused_.head;
        if (slab_[n].spec)
            ++ra_.specWasted;
        Ops::unlink(slab_, unused_, n);
        map_.erase(slab_[n].block);
        slab_.release(n);
        return;
    }
    // LRU: the least recently consumed block; unconsumed read-ahead
    // blocks are newer than any consumed block by definition of use,
    // so prefer the oldest consumed, then the oldest unconsumed.
    if (!used_.empty()) {
        const std::uint32_t n = used_.tail;
        Ops::unlink(slab_, used_, n);
        map_.erase(slab_[n].block);
        slab_.release(n);
        return;
    }
    const std::uint32_t n = unused_.head;
    if (slab_[n].spec)
        ++ra_.specWasted;
    Ops::unlink(slab_, unused_, n);
    map_.erase(slab_[n].block);
    slab_.release(n);
}

void
BlockCache::insertRun(BlockNum start, std::uint64_t count,
                      std::uint64_t spec_offset)
{
    for (std::uint64_t i = 0; i < count; ++i) {
        const BlockNum b = start + i;
        if (map_.contains(b))
            continue;   // Already cached; keep its state.
        if (map_.size() >= capacity_)
            evictOne();
        const bool spec = i >= spec_offset;
        if (spec)
            ++ra_.specInserted;
        const std::uint32_t n = slab_.allocate();
        slab_[n] = Entry{b, false, spec};
        Ops::pushBack(slab_, unused_, n);
        map_.insert(b, n);
    }
    checkInvariants();
}

void
BlockCache::eraseBlock(BlockNum block)
{
    const std::uint32_t* slot = map_.find(block);
    if (!slot)
        return;
    const std::uint32_t n = *slot;
    Entry& e = slab_[n];
    if (e.spec)
        ++ra_.specWasted;
    if (e.used)
        Ops::unlink(slab_, used_, n);
    else
        Ops::unlink(slab_, unused_, n);
    slab_.release(n);
    map_.erase(block);
}

void
BlockCache::invalidateRange(BlockNum start, std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i)
        eraseBlock(start + i);
    checkInvariants();
}

} // namespace dtsim
