/**
 * @file
 * Disk-access traces: the records the host replays against the array.
 *
 * A trace is the stream of block requests that missed in the host's
 * application/buffer caches, in issue order. Records carry a job id:
 * records of one job (e.g. one file access) are issued sequentially by
 * one server thread, while different jobs run concurrently across
 * threads.
 */

#ifndef DTSIM_WORKLOAD_TRACE_HH
#define DTSIM_WORKLOAD_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "array/striping.hh"
#include "sim/flat_table.hh"

namespace dtsim {

/** One disk access (post host-cache). */
struct TraceRecord
{
    ArrayBlock start = 0;
    std::uint32_t count = 1;
    bool isWrite = false;

    /** Job (file-access) this record belongs to. */
    std::uint32_t job = 0;
};

/** A whole workload's disk accesses. */
using Trace = std::vector<TraceRecord>;

/** Summary statistics of a trace. */
struct TraceStats
{
    std::uint64_t records = 0;
    std::uint64_t writeRecords = 0;
    std::uint64_t blocks = 0;
    std::uint64_t writeBlocks = 0;

    /** Distinct job ids. */
    std::uint64_t jobs = 0;
    double writeRecordFraction = 0.0;
    double meanRecordBlocks = 0.0;
};

/**
 * Compute summary statistics. One pass when job ids never decrease
 * from one run of equal ids to the next (every generated trace);
 * otherwise the distinct ids are counted from a sorted copy of the
 * runs' ids, 4 bytes per run.
 */
TraceStats computeStats(const Trace& trace);

/**
 * Per-block access counts over traces (every record of a disk trace is
 * a host-cache miss, hence the name).
 *
 * Counters are dense: 4096 to a page, a page allocated when one of its
 * blocks is first counted and found by `block >> 12`. The blocks of
 * the generated workloads lie in the file-system image, which is laid
 * out from block 0, so a few pages hold a whole trace and counting a
 * block is one increment, with no hashing per block. A trace whose
 * blocks lie far apart costs a 32 KB page for each 4096-block window
 * it touches.
 */
class MissCounter
{
  public:
    static constexpr unsigned kPageShift = 12;
    static constexpr std::uint64_t kPageBlocks = std::uint64_t{1}
                                                 << kPageShift;

    /** Accumulate one trace (every block of every record). */
    void addTrace(const Trace& trace);

    /** Accumulate `count` accesses of one block. */
    void add(ArrayBlock block, std::uint64_t count = 1);

    /** Access count of one block. */
    std::uint64_t count(ArrayBlock block) const;

    /** Distinct blocks counted at least once. */
    std::size_t distinctBlocks() const { return distinct_; }

    /** Visit every (block, count) with a nonzero count, by block. */
    template <typename Fn>
    void
    forEachCount(Fn&& fn) const
    {
        for (const Page* p : pagesByNumber()) {
            const ArrayBlock base = p->number << kPageShift;
            for (std::uint64_t i = 0; i < kPageBlocks; ++i)
                if (p->counts[i] != 0)
                    fn(base + i, p->counts[i]);
        }
    }

  private:
    struct Page
    {
        std::uint64_t number;  ///< block >> kPageShift
        std::unique_ptr<std::uint64_t[]> counts;
    };

    /** Count one access of each of `n` blocks from `start`. */
    void addRun(ArrayBlock start, std::uint64_t n);

    /** The counters of `block`'s page, allocated on first touch. */
    std::uint64_t* pageOf(ArrayBlock block);

    /** The pages in ascending page number. */
    std::vector<const Page*> pagesByNumber() const;

    std::vector<Page> pages_;  ///< In first-touch order.
    FlatTable<std::uint32_t> slotOf_;  ///< page number -> pages_ index
    std::size_t distinct_ = 0;
};

/**
 * Per-block access counts, sorted descending: the series plotted in
 * Figure 2. Only the `top` most-accessed blocks are returned (0 = all).
 */
std::vector<std::uint64_t> accessCountsSorted(const Trace& trace,
                                              std::size_t top = 0);

/** Save a trace as a text file (one record per line). */
void saveTrace(const Trace& trace, const std::string& path);

/**
 * Why a record over [start, start + count) cannot be replayed on an
 * array of `capacity_blocks` logical blocks: a zero block count, a
 * range that wraps past the last block number, or one past the end of
 * the array. Empty when the record fits. loadTrace() and
 * Experiment::replay() report these reasons.
 */
std::string traceRecordError(std::uint64_t start, std::uint64_t count,
                             std::uint64_t capacity_blocks);

/**
 * Load a trace saved by saveTrace(). Blank lines and '#' comments are
 * skipped. Throws std::runtime_error naming `path:line` on a malformed
 * record: a sign or other non-digit, trailing characters, a write
 * flag other than 0 or 1, a zero block count, a field out of range,
 * or a record whose start + count exceeds `capacity_blocks` (the
 * logical capacity of the array it will be replayed against).
 */
Trace loadTrace(const std::string& path,
                std::uint64_t capacity_blocks = UINT64_MAX);

} // namespace dtsim

#endif // DTSIM_WORKLOAD_TRACE_HH
