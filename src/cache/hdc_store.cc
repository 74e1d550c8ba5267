#include "cache/hdc_store.hh"

#include <algorithm>

namespace dtsim {

HdcStore::HdcStore(std::uint64_t capacity_blocks)
    : capacity_(capacity_blocks), blocks_(capacity_blocks)
{
    sorted_.reserve(capacity_blocks);
}

bool
HdcStore::pin(BlockNum block)
{
    if (blocks_.size() >= capacity_) {
        ++counters_.pinFailures;
        return false;
    }
    if (!blocks_.insert(block, 0).second) {
        ++counters_.pinFailures;
        return false;
    }
    sorted_.insert(
        std::lower_bound(sorted_.begin(), sorted_.end(), block), block);
    ++counters_.pins;
    return true;
}

bool
HdcStore::unpin(BlockNum block, bool* was_dirty)
{
    const std::uint8_t* d = blocks_.find(block);
    if (!d)
        return false;
    if (was_dirty)
        *was_dirty = *d != 0;
    if (*d) {
        --dirty_;
        ++counters_.dirtyUnpins;
    }
    ++counters_.unpins;
    blocks_.erase(block);
    sorted_.erase(
        std::lower_bound(sorted_.begin(), sorted_.end(), block));
    return true;
}

bool
HdcStore::contains(BlockNum block) const
{
    return blocks_.contains(block);
}

BlockNum
HdcStore::nextPinned(BlockNum block) const
{
    const auto it = std::lower_bound(sorted_.begin(), sorted_.end(), block);
    return it != sorted_.end() ? *it : kNoPinned;
}

std::uint64_t
HdcStore::prefixPinned(BlockNum start, std::uint64_t count) const
{
    std::uint64_t n = 0;
    while (n < count && contains(start + n))
        ++n;
    return n;
}

bool
HdcStore::allPinned(BlockNum start, std::uint64_t count) const
{
    return prefixPinned(start, count) == count;
}

bool
HdcStore::absorbWrite(BlockNum block)
{
    std::uint8_t* d = blocks_.find(block);
    if (!d)
        return false;
    if (!*d) {
        *d = 1;
        ++dirty_;
    }
    ++counters_.absorbedWrites;
    return true;
}

std::vector<BlockNum>
HdcStore::flush()
{
    ++counters_.flushCalls;
    counters_.flushedBlocks += dirty_;
    std::vector<BlockNum> out;
    out.reserve(dirty_);
    blocks_.forEach([&](std::uint64_t block, std::uint8_t& is_dirty) {
        if (is_dirty) {
            out.push_back(block);
            is_dirty = 0;
        }
    });
    dirty_ = 0;
    return out;
}

} // namespace dtsim
