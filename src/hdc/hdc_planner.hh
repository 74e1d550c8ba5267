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
#include <vector>

#include "array/striping.hh"
#include "workload/trace.hh"

namespace dtsim {

/**
 * A trace's blocks ranked by miss count, most-missed first, ties
 * toward lower block numbers. The counts do not depend on the
 * striping, so one ranking serves the pin selection of every
 * striping unit and disk count of a sweep.
 *
 * The ranking is one counting sort of a MissCounter: a histogram of
 * the counts, then one walk in block order that drops each block at
 * its count's next free rank. Counts above the number of distinct
 * blocks share the top bucket, which a stable sort by count then
 * orders, so the histogram never outgrows the ranking itself.
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
                                   std::uint64_t per_disk_budget_blocks)
        const;

  private:
    /** Every counted block, most-missed first. */
    std::vector<ArrayBlock> ranked_;
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
