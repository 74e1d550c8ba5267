/**
 * @file
 * Closed-loop trace replay (Section 6.1: "the logs are replayed in
 * the simulator as fast as possible to determine the maximum
 * throughput achievable by each system").
 *
 * The engine keeps up to S jobs in flight, one per server I/O stream.
 * A stream claims the next job (file access) from the trace, issues
 * its records sequentially -- each record is submitted when the
 * previous one completes, as a server thread reading through a file
 * would -- and then claims the next job.
 */

#ifndef DTSIM_CORE_REPLAY_HH
#define DTSIM_CORE_REPLAY_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "array/disk_array.hh"
#include "sim/event_queue.hh"
#include "workload/trace.hh"

namespace dtsim {

/** Replay-level metrics. */
struct ReplayMetrics
{
    std::uint64_t requests = 0;       ///< Records issued.
    std::uint64_t jobs = 0;           ///< Jobs completed.
    std::uint64_t blocks = 0;         ///< Blocks transferred.
    Tick sumLatency = 0;              ///< Sum of record latencies.
    Tick maxLatency = 0;

    double
    meanLatencyMs() const
    {
        return requests ? toMillis(sumLatency) /
                              static_cast<double>(requests)
                        : 0.0;
    }
};

/** Closed-loop, stream-bounded trace replayer. */
class ReplayEngine
{
  public:
    /**
     * @param eq Event queue shared with the array.
     * @param array Target array.
     * @param trace Trace to replay (borrowed; must outlive replay).
     * @param streams Maximum concurrent jobs (client connections).
     * @param workers I/O thread-pool size: maximum records in flight.
     *        A job re-queues (FIFO) for a worker between its records,
     *        modeling an event-driven server multiplexing many
     *        connections over few helper threads (PRESS uses 16).
     *        0 means one worker per stream (no multiplexing delay).
     */
    ReplayEngine(EventQueue& eq, DiskArray& array, const Trace& trace,
                 unsigned streams, unsigned workers = 0);

    /**
     * Install a host-side observer invoked after each record
     * completes (the online HDC policy counting its miss stream).
     */
    using Observer = std::function<void(const TraceRecord&, Tick)>;
    void setObserver(Observer obs) { observer_ = std::move(obs); }

    /**
     * Replay the whole trace; returns when every record has
     * completed. The event queue is run to completion.
     *
     * @return Completion time of the last record.
     */
    Tick run();

    const ReplayMetrics& metrics() const { return metrics_; }

  private:
    /**
     * Give an idle stream its next job, if any: the run of adjacent
     * records from nextRecord_ that share its job id.
     */
    void claimNext();

    /** Queue a job's next record for a worker. */
    void enqueueReady(std::size_t idx, std::size_t end);

    /** Let idle workers pull from the ready queue. */
    void dispatch();

    /** Issue record `idx` of job range [idx, end) on a worker. */
    void issue(std::size_t idx, std::size_t end);

    EventQueue& eq_;
    DiskArray& array_;
    const Trace& trace_;
    unsigned streams_;
    unsigned workers_;
    std::deque<std::pair<std::size_t, std::size_t>> ready_;
    std::size_t nextRecord_ = 0;  ///< First record of the next job.
    unsigned active_ = 0;
    unsigned busyWorkers_ = 0;
    ReplayMetrics metrics_;
    Observer observer_;
    Tick lastDone_ = 0;
    std::uint64_t nextReqId_ = 1;
};

} // namespace dtsim

#endif // DTSIM_CORE_REPLAY_HH
