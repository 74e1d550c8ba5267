/**
 * @file
 * Media-request scheduling inside a disk controller.
 *
 * The paper's controllers use the LOOK (elevator) algorithm; FCFS,
 * C-LOOK, and SSTF are provided for the scheduling ablation.
 *
 * The sweep schedulers used to keep jobs in a std::multimap keyed by
 * cylinder (a red-black tree: one heap allocation per push, pointer
 * chases per pick). They now use per-cylinder FIFO queues threaded
 * through a slab of reusable job slots, with a two-level occupancy
 * bitmap for the next/previous-occupied-cylinder scans every policy
 * is built from. Pop order is identical to the multimap by
 * construction: equal-cylinder jobs keep insertion order, a
 * lower_bound-style pick takes the bucket front, a prev(upper_bound)-
 * style pick takes the bucket back (tests/test_container_equiv.cc
 * drives both implementations against each other).
 */

#ifndef DTSIM_CONTROLLER_SCHEDULER_HH
#define DTSIM_CONTROLLER_SCHEDULER_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "controller/io_request.hh"
#include "disk/geometry.hh"

namespace dtsim {

/**
 * One in-flight record: a host request plus, when it needs the media,
 * its media range. A DiskController creates one per host request at
 * submit() and per background media job (HDC flush, mirror rebuild);
 * the record carries the request through the cache probe, the
 * scheduler, the mechanism, the bus and the completion. The
 * controller's pool owns every record; schedulers and scheduled
 * events only hold pointers.
 */
struct MediaJob
{
    IoRequest req;

    /** First block the media access must cover. */
    BlockNum mediaStart = 0;

    /** Blocks the media access must cover (missing suffix). */
    std::uint64_t mediaCount = 0;

    /** Target cylinder (precomputed for scheduling). */
    std::uint32_t cylinder = 0;

    /** Arrival order for FCFS/tie-breaking. */
    std::uint64_t seq = 0;

    /** True for host-invisible work (e.g. HDC flush writes). */
    bool background = false;

    /** True for mirror-rebuild traffic (subset of background). */
    bool rebuild = false;

    /** Tick the job entered the scheduler queue. */
    Tick enqueuedAt = 0;
};

/** Queue-depth accounting common to every scheduler policy. */
struct SchedulerStats
{
    std::uint64_t pushes = 0;    ///< jobs ever enqueued
    std::uint64_t pops = 0;      ///< jobs ever dequeued
    std::uint64_t depthSum = 0;  ///< sum of depth-after-push samples
    std::uint64_t depthMax = 0;  ///< largest depth ever seen

    /** Mean queue depth observed at enqueue time. */
    double
    meanDepth() const
    {
        return pushes ? static_cast<double>(depthSum) /
                            static_cast<double>(pushes)
                      : 0.0;
    }
};

/**
 * Queue + policy for picking the next media access. Schedulers order
 * jobs they do not own: the caller keeps each pushed job alive until
 * it is popped.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** Enqueue a job (records queue-depth stats). */
    void
    push(MediaJob* job)
    {
        doPush(job);
        ++stats_.pushes;
        const std::uint64_t depth = size();
        stats_.depthSum += depth;
        stats_.depthMax = std::max(stats_.depthMax, depth);
    }

    /**
     * Remove and return the next job to service given the arm's
     * current cylinder; nullptr if the queue is empty.
     */
    MediaJob*
    pop(std::uint32_t cylinder)
    {
        auto job = doPop(cylinder);
        if (job)
            ++stats_.pops;
        return job;
    }

    virtual std::size_t size() const = 0;

    bool empty() const { return size() == 0; }

    virtual const char* name() const = 0;

    const SchedulerStats& schedStats() const { return stats_; }

  protected:
    virtual void doPush(MediaJob* job) = 0;
    virtual MediaJob* doPop(std::uint32_t cylinder) = 0;

  private:
    SchedulerStats stats_;
};

/** First-come first-served. */
class FcfsScheduler : public Scheduler
{
  public:
    std::size_t size() const override { return queue_.size(); }
    const char* name() const override { return "FCFS"; }

  protected:
    void doPush(MediaJob* job) override;
    MediaJob* doPop(std::uint32_t cylinder) override;

  private:
    std::deque<MediaJob*> queue_;
};

/**
 * Cylinder-ordered scheduler base: jobs keyed by target cylinder.
 * LOOK sweeps alternately up and down; C-LOOK sweeps up only and
 * wraps; SSTF always takes the nearest cylinder.
 */
class SweepScheduler : public Scheduler
{
  public:
    enum class Kind { LOOK, CLOOK, SSTF };

    explicit SweepScheduler(Kind kind) : kind_(kind) {}

    std::size_t size() const override { return count_; }
    const char* name() const override;

  protected:
    void doPush(MediaJob* job) override;
    MediaJob* doPop(std::uint32_t cylinder) override;

  private:
    static constexpr std::uint32_t kNull = 0xffffffffu;

    /** One queued job threaded into its cylinder's FIFO. */
    struct JobSlot
    {
        MediaJob* job = nullptr;
        std::uint32_t prev = kNull;
        std::uint32_t next = kNull;
    };

    /** Per-cylinder queue ends (insertion order front to back). */
    struct Bucket
    {
        std::uint32_t head = kNull;
        std::uint32_t tail = kNull;
    };

    /** Grow the bucket/bitmap arrays to cover cylinder `cyl`. */
    void ensureCylinder(std::uint32_t cyl);

    void setBit(std::uint32_t cyl);
    void clearBit(std::uint32_t cyl);

    /** Smallest occupied cylinder >= c (false if none). */
    bool findAtOrAbove(std::uint32_t c, std::uint32_t* out) const;

    /** Largest occupied cylinder <= c (false if none). */
    bool findAtOrBelow(std::uint32_t c, std::uint32_t* out) const;

    /** Dequeue the oldest / newest job of an occupied cylinder. */
    MediaJob* popFront(std::uint32_t cyl);
    MediaJob* popBack(std::uint32_t cyl);

    MediaJob* takeSlot(std::uint32_t cyl, std::uint32_t n);

    Kind kind_;

    /** Job slots, reused through a freelist (steady state: no alloc). */
    std::vector<JobSlot> slots_;
    std::uint32_t freeHead_ = kNull;

    std::vector<Bucket> buckets_;       ///< indexed by cylinder
    std::vector<std::uint64_t> bits_;   ///< occupancy, bit/cylinder
    std::vector<std::uint64_t> summary_;///< bit per bits_ word
    std::size_t count_ = 0;
    bool goingUp_ = true;
};

/** Scheduler kinds for configuration. */
enum class SchedulerKind { FCFS, LOOK, CLOOK, SSTF };

const char* schedulerKindName(SchedulerKind k);

/** Factory. */
std::unique_ptr<Scheduler> makeScheduler(SchedulerKind kind);

} // namespace dtsim

#endif // DTSIM_CONTROLLER_SCHEDULER_HH
