#include "hdc/hdc_planner.hh"

#include <algorithm>
#include <utility>

namespace dtsim {

namespace {

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
    // at[k]: blocks of count k, with counts above the number of
    // distinct blocks capped to it; then the first rank of the next
    // such block. Higher counts rank first.
    const std::uint64_t cap = counter.distinctBlocks();
    std::vector<std::size_t> at;
    bool capped = false;
    counter.forEachCount([&](ArrayBlock, std::uint64_t n) {
        capped |= n > cap;
        const std::uint64_t k = std::min(n, cap);
        if (k >= at.size())
            at.resize(k + 1);
        ++at[k];
    });
    std::size_t rank = 0;
    for (std::size_t k = at.size(); k-- > 1;)
        rank += std::exchange(at[k], rank);

    // Block order within a count is the tie-break: place by block.
    ranked_.resize(counter.distinctBlocks());
    counter.forEachCount([&](ArrayBlock block, std::uint64_t n) {
        ranked_[at[std::min(n, cap)]++] = block;
    });
    if (capped) {
        // The top bucket now ends at at[cap]; order it by true count.
        const auto top_end =
            ranked_.begin() + static_cast<std::ptrdiff_t>(at[cap]);
        std::stable_sort(ranked_.begin(), top_end,
                         [&](ArrayBlock a, ArrayBlock b) {
                             return counter.count(a) > counter.count(b);
                         });
    }
}

std::vector<ArrayBlock>
MissRanking::select(const StripingMap& striping,
                    std::uint64_t per_disk_budget_blocks) const
{
    std::vector<std::uint64_t> budget(striping.disks(),
                                      per_disk_budget_blocks);
    std::uint64_t left = per_disk_budget_blocks * striping.disks();

    std::vector<ArrayBlock> pinned;
    for (std::size_t k = 0; left != 0 && k < ranked_.size(); ++k) {
        const ArrayBlock block = ranked_[k];
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
