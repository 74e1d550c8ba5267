#include "core/sweep.hh"

#include "core/run_impl.hh"
#include "sim/host_threads.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

namespace dtsim {

std::vector<RunResult>
runSweep(const std::vector<SweepJob>& jobs, unsigned threads)
{
    std::vector<RunResult> results(jobs.size());
    if (jobs.empty())
        return results;

    if (threads == 0)
        threads = hostThreads();
    if (threads > jobs.size())
        threads = static_cast<unsigned>(jobs.size());

    std::vector<std::exception_ptr> errors(jobs.size());

    // Workers claim jobs off a shared index; each job only reads its
    // shared inputs and writes its own result slot.
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            const SweepJob& job = jobs[i];
            try {
                results[i] = runTrace(job.cfg, *job.trace, job.opts,
                                      job.bitmaps, job.pinned);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (std::thread& t : pool)
            t.join();
    }

    for (const std::exception_ptr& e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    return results;
}

ControllerStats
aggregateSweepStats(const std::vector<RunResult>& results)
{
    ControllerStats total;
    for (const RunResult& r : results) {
        const ControllerStats& s = r.agg;
        total.reads += s.reads;
        total.writes += s.writes;
        total.readBlocks += s.readBlocks;
        total.writeBlocks += s.writeBlocks;
        total.cacheHitRequests += s.cacheHitRequests;
        total.hdcHitRequests += s.hdcHitRequests;
        total.hdcHitBlocks += s.hdcHitBlocks;
        total.raHitBlocks += s.raHitBlocks;
        total.mediaAccesses += s.mediaAccesses;
        total.mediaBlocks += s.mediaBlocks;
        total.readAheadBlocks += s.readAheadBlocks;
        total.flushWrites += s.flushWrites;
        total.flushBlocks += s.flushBlocks;
        total.seekTime += s.seekTime;
        total.rotTime += s.rotTime;
        total.xferTime += s.xferTime;
        total.mediaBusy += s.mediaBusy;
        total.queueTime += s.queueTime;
        total.busTime += s.busTime;
        total.latencySum += s.latencySum;
        total.latencyMax = std::max(total.latencyMax, s.latencyMax);
    }
    return total;
}

RaCounters
aggregateSweepRa(const std::vector<RunResult>& results)
{
    RaCounters total;
    for (const RunResult& r : results) {
        total.specInserted += r.ra.specInserted;
        total.specUsed += r.ra.specUsed;
        total.specWasted += r.ra.specWasted;
    }
    return total;
}

} // namespace dtsim
