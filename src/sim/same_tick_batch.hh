/**
 * @file
 * End-of-tick batch of the host-side actions that disk-side events
 * produce.
 *
 * Model rule: when several disks finish work at the same tick, their
 * completions reserve the shared bus in merge-rank order, after the
 * tick's other work. The same batch carries the other host-side
 * actions a disk produces -- scheduler queue-depth samples and rebuild
 * completions -- so each disk's actions keep their FIFO order and the
 * cross-disk order at a tick depends on the array's topology, never on
 * the insertion history of the event queue.
 *
 * The merge rank of a disk is its physical index unless the array
 * installs another order; mirrored arrays rank disks by (logical disk,
 * replica) so a replica pair's completions go primary first.
 *
 * The batch owns its queue's tick-end slot (EventQueue::armTickEnd):
 * the tick's first emission arms it, which places the flush exactly
 * where an event scheduled at `now` would run -- after every event
 * already scheduled for the tick, before any scheduled later. The
 * order is exact by construction; it does not rest on delays being
 * positive. An emission from a flushed action arms the slot again
 * and gets a flush of its own, after the current one.
 */

#ifndef DTSIM_SIM_SAME_TICK_BATCH_HH
#define DTSIM_SIM_SAME_TICK_BATCH_HH

#include <vector>

#include "sim/event_queue.hh"

namespace dtsim {

class SameTickBatch
{
  public:
    /** Host-side action produced by a disk (an event callback). */
    using Action = EventQueue::Callback;

    /**
     * Installs the batch's flush in `q`'s tick-end slot; the
     * destructor uninstalls it, so `q` must outlive the batch.
     */
    explicit SameTickBatch(EventQueue& q);

    ~SameTickBatch();

    SameTickBatch(const SameTickBatch&) = delete;
    SameTickBatch& operator=(const SameTickBatch&) = delete;

    /**
     * Install the merge order: ranks[d] is disk d's position in
     * same-tick ordering (lower runs first). Defaults to the identity.
     * Set it before the first emission: emit() looks the rank up.
     */
    void
    setMergeRanks(std::vector<unsigned> ranks)
    {
        mergeRanks_ = std::move(ranks);
    }

    /** Queue `fn` from disk `d` to run at the end of the current tick. */
    void emit(unsigned d, Action fn);

  private:
    void flush();

    /** Merge rank of disk `d` (identity when unset). */
    unsigned
    mergeRank(unsigned d) const
    {
        return d < mergeRanks_.size() ? mergeRanks_[d] : d;
    }

    struct Pending
    {
        unsigned rank;  ///< Merge rank of the emitting disk.
        Action fn;
    };

    EventQueue& q_;

    std::vector<unsigned> mergeRanks_;

    /** Emissions of the current tick, in emission order. */
    std::vector<Pending> pending_;

    /** Reused flush scratch (swap keeps pending_ reentrant). */
    std::vector<Pending> batch_;
};

} // namespace dtsim

#endif // DTSIM_SIM_SAME_TICK_BATCH_HH
