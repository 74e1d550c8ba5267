#include "hdc/hdc_planner.hh"

#include <algorithm>

namespace dtsim {

void
MissCounter::addTrace(const Trace& trace)
{
    for (const TraceRecord& r : trace)
        for (std::uint32_t i = 0; i < r.count; ++i)
            add(r.start + i);
}

void
MissCounter::add(ArrayBlock block, std::uint64_t count)
{
    *counts_.insert(block, 0).first += count;
}

std::uint64_t
MissCounter::count(ArrayBlock block) const
{
    const std::uint64_t* n = counts_.find(block);
    return n ? *n : 0;
}

namespace {

/** Heap order: `a` ranks after `b` (count desc, block asc). */
bool
ranksAfter(const std::pair<ArrayBlock, std::uint64_t>& a,
           const std::pair<ArrayBlock, std::uint64_t>& b)
{
    if (a.second != b.second)
        return a.second < b.second;
    return a.first > b.first;
}

MissCounter
countMisses(const Trace& trace)
{
    MissCounter counter;
    counter.addTrace(trace);
    return counter;
}

} // namespace

MissRanking::MissRanking(const Trace& trace)
    : MissRanking(countMisses(trace))
{
}

MissRanking::MissRanking(const MissCounter& counter)
{
    entries_.reserve(counter.distinctBlocks());
    counter.forEachCount([&](ArrayBlock block, std::uint64_t n) {
        entries_.emplace_back(block, n);
    });
    std::make_heap(entries_.begin(), entries_.end(), ranksAfter);
    heapEnd_ = entries_.size();
}

bool
MissRanking::rankNext()
{
    if (heapEnd_ == 0)
        return false;
    std::pop_heap(entries_.begin(),
                  entries_.begin() + static_cast<std::ptrdiff_t>(heapEnd_),
                  ranksAfter);
    --heapEnd_;
    return true;
}

std::vector<ArrayBlock>
MissRanking::select(const StripingMap& striping,
                    std::uint64_t per_disk_budget_blocks)
{
    std::vector<std::uint64_t> budget(striping.disks(),
                                      per_disk_budget_blocks);
    std::uint64_t left = per_disk_budget_blocks * striping.disks();

    std::vector<ArrayBlock> pinned;
    for (std::size_t k = 0; left != 0; ++k) {
        if (k == entries_.size() - heapEnd_ && !rankNext())
            break;
        const ArrayBlock block = entries_[entries_.size() - 1 - k].first;
        const unsigned disk = striping.toPhysical(block).disk;
        if (budget[disk] == 0)
            continue;
        --budget[disk];
        --left;
        pinned.push_back(block);
    }
    return pinned;
}

std::vector<ArrayBlock>
selectPinnedBlocks(const Trace& trace, const StripingMap& striping,
                   std::uint64_t per_disk_budget_blocks)
{
    return MissRanking(trace).select(striping, per_disk_budget_blocks);
}

} // namespace dtsim
