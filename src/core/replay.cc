#include "core/replay.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dtsim {

ReplayEngine::ReplayEngine(EventQueue& eq, DiskArray& array,
                           const Trace& trace, unsigned streams,
                           unsigned workers)
    : eq_(eq), array_(array), trace_(trace),
      streams_(std::max(1u, streams)),
      workers_(workers == 0 ? std::max(1u, streams) : workers)
{
}

void
ReplayEngine::claimNext()
{
    // Consecutive records sharing a job id form one job; its end is
    // found here, as the job is claimed.
    const std::size_t begin = nextRecord_;
    if (begin >= trace_.size())
        return;
    std::size_t end = begin + 1;
    while (end < trace_.size() && trace_[end].job == trace_[begin].job)
        ++end;
    nextRecord_ = end;
    ++active_;
    enqueueReady(begin, end);
}

void
ReplayEngine::enqueueReady(std::size_t idx, std::size_t end)
{
    ready_.emplace_back(idx, end);
    dispatch();
}

void
ReplayEngine::dispatch()
{
    while (busyWorkers_ < workers_ && !ready_.empty()) {
        const auto [idx, end] = ready_.front();
        ready_.pop_front();
        ++busyWorkers_;
        issue(idx, end);
    }
}

void
ReplayEngine::issue(std::size_t idx, std::size_t end)
{
    const TraceRecord& rec = trace_[idx];

    ArrayRequest req;
    req.id = nextReqId_++;
    req.start = rec.start;
    req.count = rec.count;
    req.isWrite = rec.isWrite;
    req.onComplete = [this, idx, end](const ArrayRequest& done,
                                      Tick when) {
        ++metrics_.requests;
        metrics_.blocks += done.count;
        const Tick lat = when - done.issued;
        metrics_.sumLatency += lat;
        metrics_.maxLatency = std::max(metrics_.maxLatency, lat);
        lastDone_ = std::max(lastDone_, when);

        if (observer_)
            observer_(trace_[idx], when);

        // The worker is released; the job's next record (if any)
        // re-queues at the back of the ready FIFO, behind the other
        // connections waiting for a worker.
        --busyWorkers_;
        if (idx + 1 < end) {
            enqueueReady(idx + 1, end);
        } else {
            ++metrics_.jobs;
            --active_;
            claimNext();
            dispatch();
        }
    };
    array_.submit(std::move(req));
}

Tick
ReplayEngine::run()
{
    if (trace_.empty())
        return eq_.now();
    for (unsigned s = 0; s < streams_ && nextRecord_ < trace_.size();
         ++s)
        claimNext();
    eq_.run();
    if (active_ != 0 || nextRecord_ != trace_.size() || !ready_.empty())
        panic("ReplayEngine: replay stalled (%u active, %zu/%zu "
              "records claimed)",
              active_, nextRecord_, trace_.size());
    return lastDone_;
}

} // namespace dtsim
