/**
 * @file
 * The disk mechanism: head position, platter rotation, and media
 * access timing.
 *
 * Seek time follows the three-piece model; rotational delay is
 * positional (the platter angle is a pure function of absolute
 * simulated time, so the wait for a target sector is computed exactly
 * rather than drawn at random); the media transfer proceeds at the raw
 * transfer rate with a head-switch penalty per track crossing (track
 * skew is assumed to hide the rotational component of a switch, as on
 * the real drive).
 */

#ifndef DTSIM_DISK_MECHANISM_HH
#define DTSIM_DISK_MECHANISM_HH

#include <cstdint>

#include "disk/disk_params.hh"
#include "disk/geometry.hh"
#include "disk/seek_model.hh"
#include "disk/zones.hh"
#include "sim/ticks.hh"

namespace dtsim {

/** One contiguous media access (in sectors). */
struct MediaAccess
{
    SectorNum startSector;
    std::uint64_t sectorCount;
    bool isWrite = false;
};

/** Mechanical activity counters for one drive. */
struct MechCounters
{
    std::uint64_t accesses = 0;       ///< media accesses serviced
    std::uint64_t sectors = 0;        ///< sectors transferred
    std::uint64_t seeks = 0;          ///< accesses that moved the arm
    std::uint64_t seekCylinders = 0;  ///< total cylinders travelled
    std::uint64_t headSwitches = 0;   ///< same-cylinder head changes
    std::uint64_t trackCrossings = 0; ///< boundaries crossed mid-transfer
};

/** Timing breakdown of one serviced media access. */
struct ServiceTiming
{
    Tick seek = 0;
    Tick settle = 0;
    Tick rotational = 0;
    Tick transfer = 0;

    Tick
    total() const
    {
        return seek + settle + rotational + transfer;
    }
};

/**
 * The electromechanical part of one drive. Stateful: tracks the arm's
 * cylinder and active head across accesses; the rotational position is
 * derived from absolute time.
 */
class DiskMechanism
{
  public:
    DiskMechanism(const DiskParams& params, const DiskGeometry& geom);

    /**
     * Compute the service timing of an access starting at `now` and
     * advance the head state. The caller advances simulated time by
     * the returned total.
     *
     * @param access The contiguous sector run to read or write.
     * @param now Absolute start time of the media operation.
     * @return Component breakdown; total() is the service time.
     */
    ServiceTiming service(const MediaAccess& access, Tick now);

    /** Arm's current cylinder. */
    std::uint32_t currentCylinder() const { return cylinder_; }

    /** Active head. */
    std::uint32_t currentHead() const { return head_; }

    /** The platter angle at time `t`, in [0, 1). */
    double angleAt(Tick t) const;

    /** Transfer time for `sectors` contiguous sectors (media rate). */
    Tick transferTime(std::uint64_t sectors) const;

    /**
     * Attach a zoned-recording model: media transfers then run at
     * the zone's rate (positioning stays on the flat geometry). The
     * geometry must outlive the mechanism.
     */
    void setZonedGeometry(const ZonedGeometry* zoned)
    {
        zoned_ = zoned;
    }

    /** Lifetime mechanical activity counters. */
    const MechCounters& counters() const { return counters_; }

  private:
    MechCounters counters_;
    const DiskParams& params_;
    const DiskGeometry& geom_;
    const ZonedGeometry* zoned_ = nullptr;
    SeekModel seek_;
    Tick revTime_;
    std::uint32_t cylinder_ = 0;
    std::uint32_t head_ = 0;
};

} // namespace dtsim

#endif // DTSIM_DISK_MECHANISM_HH
