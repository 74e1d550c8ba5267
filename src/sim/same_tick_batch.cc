#include "sim/same_tick_batch.hh"

#include <algorithm>

namespace dtsim {

void
SameTickBatch::emit(unsigned d, Action fn)
{
    // One flusher per tick drains every emission of that tick
    // (nothing can join the tick after it, see the file comment).
    if (!flushScheduled_) {
        flushScheduled_ = true;
        q_.scheduleAt(q_.now(), [this]() { flush(); });
    }
    pending_.push_back(Pending{d, std::move(fn)});
}

void
SameTickBatch::flush()
{
    flushScheduled_ = false;
    batch_.clear();
    batch_.swap(pending_);
    // Lowest merge rank first, FIFO within a disk.
    std::stable_sort(batch_.begin(), batch_.end(),
                     [this](const Pending& a, const Pending& b) {
                         return mergeRank(a.disk) < mergeRank(b.disk);
                     });
    for (Pending& p : batch_)
        p.fn();
}

} // namespace dtsim
