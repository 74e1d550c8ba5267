/**
 * @file
 * The disk controller: request queue, cache management, read-ahead,
 * HDC commands, and the interface between the host bus and the disk
 * mechanism.
 *
 * The controller implements the paper's three read-ahead modes
 * (none, blind segment-filling, FOR) over either cache organization
 * (segment-based or block-based), plus the HDC pinned store with the
 * pin_blk()/unpin_blk()/flush_hdc() host commands. Cache memory is a
 * single budget: the HDC region and (for FOR) the layout bitmap are
 * carved out of the read-ahead cache, exactly as in Section 6.
 */

#ifndef DTSIM_CONTROLLER_DISK_CONTROLLER_HH
#define DTSIM_CONTROLLER_DISK_CONTROLLER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bus/scsi_bus.hh"
#include "cache/block_cache.hh"
#include "cache/controller_cache.hh"
#include "cache/hdc_store.hh"
#include "cache/segment_cache.hh"
#include "controller/io_request.hh"
#include "controller/layout_bitmap.hh"
#include "controller/scheduler.hh"
#include "disk/disk_params.hh"
#include "disk/geometry.hh"
#include "disk/mechanism.hh"
#include "sim/event_queue.hh"
#include "sim/ticks.hh"
#include "stats/service_stats.hh"
#include "stats/trace.hh"

namespace dtsim {

/** Read-ahead cache organization. */
enum class CacheOrg { Segment, Block };

/** Read-ahead policy. */
enum class ReadAheadMode { None, Blind, FOR };

const char* cacheOrgName(CacheOrg o);
const char* readAheadModeName(ReadAheadMode m);

/** Per-controller configuration. */
struct ControllerConfig
{
    CacheOrg org = CacheOrg::Segment;
    SegmentPolicy segmentPolicy = SegmentPolicy::LRU;
    BlockPolicy blockPolicy = BlockPolicy::MRU;
    ReadAheadMode readAhead = ReadAheadMode::Blind;
    SchedulerKind scheduler = SchedulerKind::LOOK;

    /** Bytes of controller memory given to the HDC pinned region. */
    std::uint64_t hdcBytes = 0;

    /** RNG seed for randomized replacement policies. */
    std::uint64_t seed = 1;
};

/** Counters exported by one controller. */
struct ControllerStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t readBlocks = 0;
    std::uint64_t writeBlocks = 0;

    /** Requests served entirely without a media access. */
    std::uint64_t cacheHitRequests = 0;

    /** Requests served entirely from the HDC pinned store. */
    std::uint64_t hdcHitRequests = 0;

    /** Individual blocks served from the HDC store. */
    std::uint64_t hdcHitBlocks = 0;

    /** Individual blocks served from the read-ahead cache. */
    std::uint64_t raHitBlocks = 0;

    std::uint64_t mediaAccesses = 0;
    std::uint64_t mediaBlocks = 0;         ///< Demanded blocks.
    std::uint64_t readAheadBlocks = 0;     ///< Speculative blocks.
    std::uint64_t flushWrites = 0;         ///< HDC flush media jobs.
    std::uint64_t flushBlocks = 0;         ///< Blocks they wrote.
    std::uint64_t rebuildJobs = 0;         ///< Mirror-rebuild jobs.
    std::uint64_t rebuildBlocks = 0;       ///< Blocks they wrote.

    Tick seekTime = 0;
    Tick rotTime = 0;
    Tick xferTime = 0;
    Tick mediaBusy = 0;

    /** Summed per-request scheduler queue wait (host requests). */
    Tick queueTime = 0;

    /** Summed per-request bus transfer time (host requests). */
    Tick busTime = 0;

    /** Summed submit-to-complete latency (host requests). */
    Tick latencySum = 0;

    /** Largest single-request latency. */
    Tick latencyMax = 0;
};

/**
 * Check one drained disk's conservation identities; returns one
 * message per violation (empty when the counters agree):
 *  - every host request is a cache hit or takes one media access,
 *    and every other media access is an HDC flush or mirror rebuild
 *    job: reads + writes = cache hits + media accesses - flush
 *    writes - rebuild jobs;
 *  - every host block comes from the HDC store, the read-ahead
 *    cache or the media: read + write blocks = HDC hit blocks + RA
 *    hit blocks + media blocks;
 *  - every scheduled job is dequeued and serviced once: pushes =
 *    pops = mechanism accesses;
 *  - no speculative block is both used and wasted: spec_inserted >=
 *    spec_used + spec_wasted.
 */
std::vector<std::string> accountingErrors(unsigned disk,
                                          const ControllerStats& s,
                                          const SchedulerStats& sched,
                                          const MechCounters& mech,
                                          const RaCounters& ra);

/**
 * One disk drive's controller plus mechanism.
 */
class DiskController
{
  public:
    /**
     * @param eq Global event queue.
     * @param bus Shared host bus.
     * @param params Drive parameters (copied).
     * @param cfg Controller configuration.
     * @param disk_id Array position, for reporting.
     */
    DiskController(EventQueue& eq, ScsiBus& bus,
                   const DiskParams& params,
                   const ControllerConfig& cfg, unsigned disk_id);

    DiskController(const DiskController&) = delete;
    DiskController& operator=(const DiskController&) = delete;

    /**
     * Attach the FOR layout bitmap. Required when the read-ahead mode
     * is FOR; the bitmap is produced by the file-system model (or by
     * controller-resident routines in a real deployment).
     */
    void setBitmap(const LayoutBitmap* bitmap) { bitmap_ = bitmap; }

    /** Submit a host request; the callback fires on completion. */
    void submit(IoRequest req);

    /**
     * Enqueue one mirror-rebuild media job over
     * [start, start+count). Rebuild traffic competes with foreground
     * I/O in the scheduler but bypasses the caches and the host bus;
     * `done` runs inside the media access's completion event, after
     * the controller has finished its own bookkeeping for the job. The
     * command reaches the controller after commandLatency() ticks.
     */
    void submitRebuild(BlockNum start, std::uint64_t count,
                       bool is_write, IoRequest::Callback done);

    /**
     * Modeled latency of a host->controller command (rebuild
     * submission, mid-run HDC pin/unpin): the per-request overhead
     * plus the HDC lookup charge when an HDC region exists.
     */
    Tick
    commandLatency() const
    {
        Tick l = params_.requestOverhead;
        if (hdc_)
            l += params_.hdcLookupOverhead;
        return l;
    }

    /**
     * pin_blk(): pin a block into the HDC region. This warm-start
     * variant is untimed (the paper loads HDC contents at the start of
     * each period, outside the measured window).
     *
     * @return false if no HDC region exists or it is full.
     */
    bool pinBlock(BlockNum block);

    /** unpin_blk(): release a pinned block. Untimed. */
    bool unpinBlock(BlockNum block);

    /**
     * flush_hdc(): enqueue background media writes for every dirty
     * pinned block (contiguous runs are coalesced). The writes compete
     * for the mechanism with regular traffic.
     *
     * @return Number of media write jobs enqueued.
     */
    std::uint64_t flushHdc();

    const ControllerStats& stats() const { return stats_; }
    const DiskParams& params() const { return params_; }
    unsigned diskId() const { return diskId_; }

    /** Read-ahead accuracy counters of the controller cache. */
    const RaCounters& raCounters() const
    {
        return raCache_->raCounters();
    }

    /** Scheduler queue-depth counters. */
    const SchedulerStats& schedStats() const
    {
        return sched_->schedStats();
    }

    /** accountingErrors() of this disk's counters; call once drained. */
    std::vector<std::string> accountingErrors() const;

    /**
     * Attach the shared per-request histogram bundle. Optional; when
     * unset, only the scalar counters are maintained.
     */
    void setServiceStats(stats::ServiceStats* svc) { svc_ = svc; }

    /**
     * Attach the request tracer. Optional; the tracer's own enabled
     * check keeps the completion path allocation-free when tracing is
     * off.
     */
    void setTracer(RequestTracer* tracer) { tracer_ = tracer; }

    /**
     * Export a snapshot of every per-component counter as an owned
     * "disk<N>" child group of `parent` (see docs/METRICS.md).
     */
    void exportStats(stats::StatGroup& parent) const;

    /** Read-ahead cache capacity in blocks after HDC/bitmap carving. */
    std::uint64_t raCacheBlocks() const;

    /** HDC region capacity in blocks (0 when HDC is off). */
    std::uint64_t hdcCapacityBlocks() const;

    /** Pinned blocks currently resident. */
    std::uint64_t hdcPinnedBlocks() const;

    /** Outstanding requests (queued or in flight). */
    std::uint64_t outstanding() const { return outstanding_; }

    /**
     * In-flight records not back in the pool: host requests not yet
     * completed plus background media jobs not yet finished. Zero
     * once the event queue has drained.
     */
    std::size_t
    recordsInFlight() const
    {
        return jobStore_.size() - jobFree_.size();
    }

    /** Drive utilization: media busy time / elapsed time. */
    double utilization() const;

  private:
    /** Cached-prefix probe across HDC and the read-ahead cache. */
    struct PrefixHit
    {
        std::uint64_t blocks = 0;     ///< Total cached prefix length.
        std::uint64_t hdcBlocks = 0;  ///< Of which from HDC.
    };

    PrefixHit cachedPrefix(BlockNum start, std::uint64_t count);

    void process(MediaJob* job);
    void handleRead(MediaJob* job);
    void handleWrite(MediaJob* job);

    /** Queue a media job and start the mechanism if idle. */
    void enqueueMedia(MediaJob* job);

    void tryStartMedia();
    void startMedia(MediaJob* job);
    void onMediaDone(MediaJob* job, std::uint64_t ra_blocks);

    /** Blocks of speculative read-ahead to append to a media read. */
    std::uint64_t readAheadBlocks(BlockNum media_start,
                                  std::uint64_t media_count) const;

    /**
     * Finish a request: reserve the bus for its transfer now, in
     * event order, and schedule the completion at the transfer's end.
     */
    void respond(MediaJob* job);

    /** Complete a host request and return its record to the pool. */
    void complete(MediaJob* job, Tick done);

    /** Fold a completed host request into stats/histograms/trace. */
    void noteComplete(const IoRequest& req, Tick done);

    /**
     * Insert freshly read blocks, skipping pinned ones. Blocks at
     * offset >= `spec_offset` were read ahead speculatively.
     */
    void insertIntoCache(BlockNum start, std::uint64_t count,
                         std::uint64_t spec_offset);

    /** Default-state in-flight record from the pool. */
    MediaJob* allocJob();

    /**
     * Return a finished record to the pool. Only after its
     * onComplete has returned: that callback may submit to this
     * controller, which must not be handed the record still running.
     */
    void recycleJob(MediaJob* job) { jobFree_.push_back(job); }

    EventQueue& eq_;
    ScsiBus& bus_;
    DiskParams params_;
    ControllerConfig cfg_;
    unsigned diskId_;

    DiskGeometry geom_;
    std::unique_ptr<ZonedGeometry> zoned_;
    DiskMechanism mech_;
    std::unique_ptr<Scheduler> sched_;
    std::unique_ptr<ControllerCache> raCache_;
    std::unique_ptr<HdcStore> hdc_;
    const LayoutBitmap* bitmap_ = nullptr;

    std::uint64_t maxReadBlocks_;   ///< Segment-size read budget.

    /**
     * Owns every in-flight record ever allocated. Scheduled events
     * and the scheduler hold raw pointers, so records still referenced
     * by pending events are freed with the controller.
     */
    std::vector<std::unique_ptr<MediaJob>> jobStore_;

    /** Free list over jobStore_ entries. */
    std::vector<MediaJob*> jobFree_;

    bool mediaBusy_ = false;

    std::uint64_t seq_ = 0;
    std::uint64_t outstanding_ = 0;
    ControllerStats stats_;
    stats::ServiceStats* svc_ = nullptr;
    RequestTracer* tracer_ = nullptr;
};

} // namespace dtsim

#endif // DTSIM_CONTROLLER_DISK_CONTROLLER_HH
