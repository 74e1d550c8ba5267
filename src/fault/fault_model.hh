/**
 * @file
 * Deterministic fault-injection model: per-disk media-error state,
 * transient timeout/backoff state, and whole-array health tracking.
 *
 * The model is passive: it never schedules events itself. The
 * DiskController consults its per-disk DiskFaults when it starts a
 * media access (media errors, retries, remaps) and when it tries to
 * dispatch (stalls); the DiskArray owns the FaultModel, schedules the
 * scripted kill/repair events, and uses the health map to route
 * degraded reads and rebuild traffic. All randomness comes from
 * per-disk xoshiro streams seeded from fault.seed only, so fault
 * decisions are seed-stable and independent of the workload, cache,
 * and scheduler RNG streams.
 *
 * See docs/FAULTS.md for the model narrative and docs/METRICS.md for
 * the sim.fault.* counter definitions.
 */

#ifndef DTSIM_FAULT_FAULT_MODEL_HH
#define DTSIM_FAULT_FAULT_MODEL_HH

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "fault/fault_config.hh"
#include "sim/rng.hh"
#include "sim/ticks.hh"

namespace dtsim {

/**
 * Every fault and recovery action, counted once array-wide. Exported
 * as the sim.fault.* StatGroup (names match the fields verbatim).
 * Every DiskFaults and the DiskArray write the same instance, owned
 * by the FaultModel.
 */
struct FaultCounters
{
    std::uint64_t mediaErrors = 0;      ///< Failed media attempts.
    std::uint64_t retries = 0;          ///< Re-serviced attempts.
    Tick retryTicks = 0;                ///< Time spent re-servicing.
    std::uint64_t remapEvents = 0;      ///< Retry budgets exhausted.
    std::uint64_t remappedBlocks = 0;   ///< Blocks moved to spares.
    std::uint64_t remappedAccesses = 0; ///< Accesses paying the
                                        ///< permanent remap penalty.
    std::uint64_t stalls = 0;           ///< Dispatch stalls/timeouts.
    Tick stallTicks = 0;                ///< Time lost to stalls.
    std::uint64_t diskFailures = 0;     ///< Whole-disk kill events.
    std::uint64_t diskRepairs = 0;      ///< Repair events.
    std::uint64_t degradedReads = 0;    ///< Reads re-routed off a
                                        ///< dead replica.
    std::uint64_t degradedWrites = 0;   ///< Writes that reached only
                                        ///< one replica.
    std::uint64_t rebuildJobs = 0;      ///< Rebuild media jobs issued.
    std::uint64_t rebuildBlocks = 0;    ///< Blocks copied by rebuild.

    /** True when anything at all happened. */
    bool
    any() const
    {
        return mediaErrors || retries || remapEvents ||
               remappedAccesses || stalls || diskFailures ||
               diskRepairs || degradedReads || degradedWrites ||
               rebuildJobs;
    }
};

/** Health of one physical disk. */
enum class DiskHealth
{
    Alive,      ///< Serving I/O normally.
    Dead,       ///< Killed; no reads, writes are dropped (lost).
    Rebuilding, ///< Back online, absorbing writes + rebuild traffic.
};

/**
 * Per-disk fault state consulted by that disk's controller. Writes
 * the caller-provided (array-wide) FaultCounters.
 */
class DiskFaults
{
  public:
    DiskFaults(const FaultConfig& cfg, unsigned disk,
               FaultCounters& counters);

    /**
     * Would a media access over [start, start+count) fail right now?
     * True when the range overlaps a scripted (un-remapped) bad block
     * or the probabilistic error draw fires. Each call is one
     * attempt: call again to model a retry.
     */
    bool attemptFails(std::uint64_t start, std::uint64_t count);

    /**
     * Give up on the failing range: move every scripted bad block in
     * it to the spare region (for a purely probabilistic failure the
     * first block of the range is remapped as the culprit). Returns
     * the number of blocks remapped (>= 1).
     */
    std::uint64_t remapRange(std::uint64_t start,
                             std::uint64_t count);

    /** Does the range touch an already-remapped block? */
    bool touchesRemapped(std::uint64_t start,
                         std::uint64_t count) const;

    /** Permanent extra seek charged per access to remapped blocks. */
    Tick
    remapPenalty() const
    {
        return fromMillis(cfg_.remapPenaltyMs);
    }

    /** Retry budget before a failing block is remapped. */
    unsigned
    maxRetries() const
    {
        return cfg_.maxRetries;
    }

    /**
     * Delay (0 = none) to impose before dispatching the next media
     * job at `now`. Scripted stall windows delay to the window's
     * end; probabilistic timeouts return the current exponential
     * backoff and double it (bounded); a clean dispatch resets the
     * backoff. Counters are updated for every nonzero delay.
     */
    Tick dispatchDelay(Tick now);

    /** The array-wide counters this disk writes. */
    FaultCounters&
    counters()
    {
        return *counters_;
    }

  private:
    const FaultConfig& cfg_;
    FaultCounters* counters_;
    Rng rng_;
    std::set<std::uint64_t> bad_;      ///< Scripted, not yet remapped.
    std::set<std::uint64_t> remapped_; ///< Moved to the spare region.
    std::vector<StallWindow> windows_;
    Tick backoff_ = 0;                 ///< Current timeout backoff.
};

/**
 * Array-wide fault state: one DiskFaults per physical disk, the disk
 * health map, and the counters every disk writes.
 */
class FaultModel
{
  public:
    FaultModel(const FaultConfig& cfg, unsigned disks);

    const FaultConfig&
    config() const
    {
        return cfg_;
    }

    DiskFaults&
    disk(unsigned d)
    {
        return *disks_[d];
    }

    DiskHealth
    health(unsigned d) const
    {
        return health_[d];
    }

    void
    setHealth(unsigned d, DiskHealth h)
    {
        health_[d] = h;
    }

    /** Array-wide fault/recovery counters. */
    FaultCounters&
    counters()
    {
        return counters_;
    }

    const FaultCounters&
    counters() const
    {
        return counters_;
    }

  private:
    FaultConfig cfg_;
    FaultCounters counters_;
    std::vector<std::unique_ptr<DiskFaults>> disks_;
    std::vector<DiskHealth> health_;
};

} // namespace dtsim

#endif // DTSIM_FAULT_FAULT_MODEL_HH
