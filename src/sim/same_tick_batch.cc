#include "sim/same_tick_batch.hh"

#include <utility>

namespace dtsim {

SameTickBatch::SameTickBatch(EventQueue& q) : q_(q)
{
    q_.setTickEnd([this]() { flush(); });
}

SameTickBatch::~SameTickBatch()
{
    q_.setTickEnd(nullptr);
}

void
SameTickBatch::emit(unsigned d, Action fn)
{
    // One flush per tick drains every emission of that tick; arming
    // an armed slot is a no-op.
    q_.armTickEnd();
    pending_.push_back(Pending{mergeRank(d), std::move(fn)});
}

void
SameTickBatch::flush()
{
    batch_.clear();
    batch_.swap(pending_);
    // Lowest merge rank first, FIFO within a disk: a stable insertion
    // sort, which allocates nothing and does no work on the usual
    // single-entry or already-ordered batch.
    for (std::size_t i = 1; i < batch_.size(); ++i) {
        if (batch_[i].rank >= batch_[i - 1].rank)
            continue;
        Pending p = std::move(batch_[i]);
        std::size_t j = i;
        do {
            batch_[j] = std::move(batch_[j - 1]);
            --j;
        } while (j > 0 && batch_[j - 1].rank > p.rank);
        batch_[j] = std::move(p);
    }
    for (Pending& p : batch_)
        p.fn();
}

} // namespace dtsim
