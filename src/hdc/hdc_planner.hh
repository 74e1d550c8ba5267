/**
 * @file
 * Host-side HDC policy (Section 5).
 *
 * The host divides the server's execution into periods and pins, for
 * each disk, the blocks of that disk that caused the most buffer
 * cache misses in the previous period(s). The paper's evaluation
 * assumes perfect knowledge of the future: the pin set is computed
 * from the same trace that is replayed. Both modes are provided here:
 * plan from a history trace, or from the trace to be replayed.
 */

#ifndef DTSIM_HDC_HDC_PLANNER_HH
#define DTSIM_HDC_HDC_PLANNER_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "array/striping.hh"
#include "sim/flat_table.hh"
#include "workload/trace.hh"

namespace dtsim {

/** Per-block miss counting over a disk trace. */
class MissCounter
{
  public:
    /** Accumulate one trace (every record is a host-cache miss). */
    void addTrace(const Trace& trace);

    /** Accumulate one access. */
    void add(ArrayBlock block, std::uint64_t count = 1);

    /** Access count of one block. */
    std::uint64_t count(ArrayBlock block) const;

    /** Distinct blocks seen. */
    std::size_t distinctBlocks() const { return counts_.size(); }

    /** Visit every (block, count) pair in unspecified order. */
    template <typename Fn>
    void
    forEachCount(Fn&& fn) const
    {
        counts_.forEach([&](std::uint64_t block, const std::uint64_t& n) {
            fn(static_cast<ArrayBlock>(block), n);
        });
    }

  private:
    /**
     * block -> miss count. Open addressing: planning scans multi-
     * million-record traces, and the probe-per-access dominates the
     * plan cost. MissRanking orders by (count desc, block asc), so
     * the table's iteration order never reaches the output.
     */
    FlatTable<std::uint64_t> counts_;
};

/**
 * A trace's blocks ranked by miss count, most-missed first, ties
 * toward lower block numbers. The counts do not depend on the
 * striping, so one ranking serves the pin selection of every
 * striping unit and disk count of a sweep.
 *
 * The ranking is lazy: the (block, count) pairs sit in a max-heap,
 * and a ranked prefix grows by popping it only as far as a
 * selection reads. Pin budgets are tiny next to a trace's block
 * population, so most of the heap is never sorted.
 */
class MissRanking
{
  public:
    /** Count the misses of every record of `trace`. */
    explicit MissRanking(const Trace& trace);

    /** Rank counts accumulated elsewhere. */
    explicit MissRanking(const MissCounter& counter);

    /**
     * The pin set of an array: the ranked blocks in order, each
     * kept while its disk's budget has room, until every disk is
     * full or the ranking ends.
     *
     * @param striping The array's striping map.
     * @param per_disk_budget_blocks HDC capacity of each controller.
     * @return Logical block numbers to pin, in ranking order.
     */
    std::vector<ArrayBlock> select(const StripingMap& striping,
                                   std::uint64_t per_disk_budget_blocks);

  private:
    /** Rank one more block; false once every block is ranked. */
    bool rankNext();

    /**
     * (block, count) pairs. [0, heapEnd_) is the max-heap of the
     * unranked; pop_heap leaves each popped maximum right after it,
     * so rank k is entries_[size() - 1 - k].
     */
    std::vector<std::pair<ArrayBlock, std::uint64_t>> entries_;
    std::size_t heapEnd_ = 0;
};

/**
 * Select the pin set for an array from one trace:
 * MissRanking(trace).select(striping, per_disk_budget_blocks).
 *
 * @param trace History (or oracle) trace.
 * @param striping The array's striping map.
 * @param per_disk_budget_blocks HDC capacity of each controller.
 * @return Logical block numbers to pin (pass to
 *         DiskArray::pinLogicalBlock).
 */
std::vector<ArrayBlock>
selectPinnedBlocks(const Trace& trace, const StripingMap& striping,
                   std::uint64_t per_disk_budget_blocks);

} // namespace dtsim

#endif // DTSIM_HDC_HDC_PLANNER_HH
