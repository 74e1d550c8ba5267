/**
 * @file
 * The disk array: a set of disk controllers behind one shared bus,
 * addressed through a striped logical block space.
 *
 * A logical request is split along striping-unit boundaries into
 * per-disk sub-requests; it completes when the last sub-request
 * completes (Section 2.2's gamma(D) fragmentation effect emerges from
 * this fan-out).
 */

#ifndef DTSIM_ARRAY_DISK_ARRAY_HH
#define DTSIM_ARRAY_DISK_ARRAY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "array/striping.hh"
#include "bus/scsi_bus.hh"
#include "controller/disk_controller.hh"
#include "controller/layout_bitmap.hh"
#include "fault/fault_config.hh"
#include "sim/event_queue.hh"

namespace dtsim {

/** One request in the array's logical block space. */
struct ArrayRequest
{
    using Callback = SmallFunction<void(const ArrayRequest&, Tick), 32>;

    std::uint64_t id = 0;
    ArrayBlock start = 0;
    std::uint64_t count = 1;
    bool isWrite = false;
    Tick issued = 0;

    /** True when every sub-request was a controller-cache hit. */
    bool allCacheHits = false;

    /** True when every sub-request was served by the HDC store. */
    bool allHdcHits = false;

    Callback onComplete;
};

/** Array-wide configuration. */
struct ArrayConfig
{
    unsigned disks = 8;
    std::uint64_t stripeUnitBytes = 128 * kKiB;
    DiskParams disk;
    ControllerConfig controller;
    double busBytesPerSec = 160.0e6;

    /**
     * RAID-1 over the stripes (RAID-10): the second half of the
     * disks mirrors the first. Reads go to the replica with the
     * shorter queue; writes go to both. Halves the logical capacity;
     * requires an even disk count.
     */
    bool mirrored = false;

    /**
     * Whole-disk fault script (default: no kill). When a kill is
     * scripted the array tracks every disk's health, schedules the
     * kill and repair events, and routes degraded reads and rebuild
     * traffic. See docs/FAULTS.md.
     */
    FaultConfig fault;
};

/** A striped array of simulated disks. */
class DiskArray
{
  public:
    /**
     * @param eq The event queue driving the array.
     * @param cfg Array configuration.
     */
    DiskArray(EventQueue& eq, const ArrayConfig& cfg);

    DiskArray(const DiskArray&) = delete;
    DiskArray& operator=(const DiskArray&) = delete;

    /**
     * Attach per-disk FOR bitmaps (index = disk). Required when the
     * controllers run FOR read-ahead. Bitmaps are owned by the caller
     * (normally the file-system model) and must outlive the array.
     */
    void setBitmaps(const std::vector<LayoutBitmap>* bitmaps);

    /** Submit a logical request. */
    void submit(ArrayRequest req);

    /**
     * pin_blk() routed to the owning disk (both replicas when
     * mirrored). One command API for both run phases:
     *
     *  - At tick 0 (warm start, before the run) the pin applies
     *    synchronously and the return value reports success, exactly
     *    like the paper's untimed HDC load outside the measured
     *    window.
     *  - Mid-run the command reaches the owning controller after its
     *    commandLatency(), like any other host->controller command.
     *    The caller models HDC capacity host-side (see
     *    OnlineHdcPolicy), so a failure at the controller is a model
     *    bug and fatal()s; the call returns true.
     */
    bool pinLogicalBlock(ArrayBlock lb);

    /** unpin_blk() routed like pinLogicalBlock(). */
    bool unpinLogicalBlock(ArrayBlock lb);

    /**
     * Modeled host->controller command latency (uniform across the
     * array's identical controllers).
     */
    Tick commandLatency() const { return ctrls_[0]->commandLatency(); }

    /** flush_hdc() on every controller. @return media jobs queued. */
    std::uint64_t flushAllHdc();

    const StripingMap& striping() const { return striping_; }
    unsigned disks() const { return static_cast<unsigned>(ctrls_.size()); }
    DiskController& controller(unsigned d) { return *ctrls_.at(d); }
    const DiskController& controller(unsigned d) const
    {
        return *ctrls_.at(d);
    }
    ScsiBus& bus() { return bus_; }

    /** Logical capacity in blocks (requests must end within it). */
    std::uint64_t
    totalBlocks() const
    {
        return striping_.addressableBlocks();
    }

    /** Sum of a statistic over all controllers. */
    ControllerStats aggregateStats() const;

    /** Summed read-ahead accuracy counters over all controllers. */
    RaCounters aggregateRaCounters() const;

    /** Attach the shared histogram bundle to every controller. */
    void setServiceStats(stats::ServiceStats* svc);

    /** Attach the request tracer to every controller. */
    void setTracer(RequestTracer* tracer);

    /**
     * Export a snapshot of bus and per-disk counters as owned child
     * groups of `parent` (see docs/METRICS.md). `asOf` pins the
     * elapsed-time denominator of clock-derived stats (bus
     * utilization); 0 reads the live event-queue clock. The final
     * dump passes the run's elapsed time so trailing housekeeping
     * events (snapshot / stream-frame chains) cannot skew ratios.
     */
    void exportStats(stats::StatGroup& parent, Tick asOf = 0) const;

    /** Requests still in flight. */
    std::uint64_t outstanding() const { return outstanding_; }

    /** True when the array mirrors its stripes (RAID-10). */
    bool mirrored() const { return mirrored_; }

    /** True when a disk kill is scripted (fault.kill_at_ticks). */
    bool faultsEnabled() const { return !health_.empty(); }

    /**
     * Array-wide fault/recovery counters; all-zero when no kill is
     * scripted. The rebuild counters are summed from the controllers,
     * which count each rebuild job when its media access starts.
     */
    FaultCounters faultCounters() const;

    /** Health of one physical disk (Alive when no kill is scripted). */
    DiskHealth diskHealth(unsigned d) const
    {
        return health_.empty() ? DiskHealth::Alive : health_[d];
    }

    /**
     * Observer for scripted fault events ("failure", "repair",
     * "rebuilt"), called with the event name, the disk, and the
     * tick. Used by the runner to stamp snapshots into stats output;
     * tests use it to watch the health state machine.
     */
    using FaultEventHook =
        std::function<void(const char* event, unsigned disk, Tick)>;
    void setFaultEventHook(FaultEventHook hook)
    {
        faultHook_ = std::move(hook);
    }

  private:
    /**
     * Book-keeping for one in-flight logical request. Pool-allocated:
     * sub-request callbacks hold a raw pointer, and the callback that
     * drops `remaining` to zero recycles the object — every other
     * sub-callback has already run by then (each runs exactly once and
     * decrements), and an already-run callback never dereferences the
     * pointer again, so no reference counting is needed.
     */
    struct Pending
    {
        ArrayRequest req;
        std::size_t remaining = 0;
        bool anyMedia = false;
        bool anyNonHdc = false;
        Tick lastDone = 0;
    };

    /** Fresh (default-state) Pending from the pool. */
    Pending* acquirePending();

    /** Return a completed Pending to the pool. */
    void recyclePending(Pending* p);

    /** Replica choice for a mirrored read. */
    unsigned pickReplica(unsigned disk) const;

    /**
     * Replica choice honouring disk health: routes off dead
     * replicas, setting `degraded` when the preferred copy is gone.
     * fatal() when no live replica remains.
     */
    unsigned pickReadTarget(unsigned disk, bool& degraded);

    /** Issue one sub-request to one controller. */
    void submitSub(unsigned disk, const SubRange& sr, bool is_write,
                   Pending* pending, bool degraded = false);

    /** Schedule a deferred pin/unpin command on disk `d`. */
    void pinOnDisk(unsigned d, BlockNum b);
    void unpinOnDisk(unsigned d, BlockNum b);

    /** The mirror partner of physical disk `d`. */
    unsigned partnerOf(unsigned d) const
    {
        const unsigned half = striping_.disks();
        return d < half ? d + half : d - half;
    }

    /** Scripted whole-disk failure at the configured tick. */
    void failDisk(unsigned d);

    /** Scripted repair: back online + sequential rebuild traffic. */
    void repairDisk(unsigned d);

    /** Issue the next rebuild chunk for disk `d` (ends at
     * rebuildEnd_[d]). */
    void issueRebuildChunk(unsigned d, std::uint64_t start);

    EventQueue& eq_;
    ScsiBus bus_;
    bool mirrored_;
    StripingMap striping_;

    std::vector<std::unique_ptr<DiskController>> ctrls_;

    /** Reused split() output buffer (submit() is never re-entered). */
    std::vector<SubRange> subsScratch_;

    /** Owns every Pending ever allocated (callbacks see raw ptrs). */
    std::vector<std::unique_ptr<Pending>> pendingStore_;

    /** Free list over pendingStore_ entries. */
    std::vector<Pending*> pendingFree_;

    std::uint64_t nextSubId_ = 1;
    std::uint64_t outstanding_ = 0;

    /** The fault script; only read when health_ is non-empty. */
    FaultConfig fault_;

    /** Per-disk health; empty when no kill is scripted. */
    std::vector<DiskHealth> health_;

    /** Kill, repair and degraded-I/O counters (rebuild ones are the
     * controllers'). */
    FaultCounters faultCounters_;
    FaultEventHook faultHook_;

    /** Per-disk rebuild end block (kept out of the chunk-completion
     * lambdas so they fit the SmallFunction buffer). */
    std::vector<std::uint64_t> rebuildEnd_;
};

} // namespace dtsim

#endif // DTSIM_ARRAY_DISK_ARRAY_HH
