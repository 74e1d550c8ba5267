#include "disk/mechanism.hh"

#include <cmath>

#include "sim/logging.hh"

namespace dtsim {

DiskMechanism::DiskMechanism(const DiskParams& params,
                             const DiskGeometry& geom)
    : params_(params), geom_(geom), seek_(params),
      revTime_(params.revolutionTime())
{
}

double
DiskMechanism::angleAt(Tick t) const
{
    return static_cast<double>(t % revTime_) /
           static_cast<double>(revTime_);
}

Tick
DiskMechanism::transferTime(std::uint64_t sectors) const
{
    // The media transfer is rotation-locked: a sector passes under
    // the head in exactly 1/spt of a revolution, so sequential
    // accesses continue seamlessly where the previous one ended.
    const double revs = static_cast<double>(sectors) /
                        static_cast<double>(geom_.sectorsPerTrack());
    return static_cast<Tick>(
        revs * static_cast<double>(revTime_) + 0.5);
}

ServiceTiming
DiskMechanism::service(const MediaAccess& access, Tick now)
{
    if (access.sectorCount == 0)
        panic("DiskMechanism: zero-length media access");
    if (access.startSector + access.sectorCount > geom_.totalSectors())
        panic("DiskMechanism: access past end of disk");

    ServiceTiming t;

    const Chs target = geom_.sectorToChs(access.startSector);

    // Arm movement.
    const std::uint32_t dist = target.cylinder > cylinder_
        ? target.cylinder - cylinder_
        : cylinder_ - target.cylinder;
    t.seek = seek_.seekTime(dist);
    if (dist == 0 && target.head != head_)
        t.seek += params_.headSwitch;
    if (access.isWrite && dist > 0)
        t.settle = params_.writeSettle;

    // Rotational positioning: wait for the target sector's leading
    // edge to pass under the head.
    const Tick arrive = now + t.seek + t.settle;
    const double target_angle =
        static_cast<double>(target.sector) /
        static_cast<double>(geom_.sectorsPerTrack());
    const double here = angleAt(arrive);
    double wait = target_angle - here;
    if (wait < 0.0)
        wait += 1.0;
    // A sequential continuation lands exactly on the target sector;
    // floating-point jitter must not turn that into a full
    // revolution. Treat anything within half a sector gap of a whole
    // turn as aligned.
    const double half_sector =
        0.5 / static_cast<double>(geom_.sectorsPerTrack());
    if (wait > 1.0 - half_sector)
        wait = 0.0;
    t.rotational =
        static_cast<Tick>(wait * static_cast<double>(revTime_));

    // Media transfer, with a head-switch penalty at each track
    // boundary crossed (skew hides the rotational component).
    t.transfer = zoned_
        ? zoned_->transferTime(access.startSector,
                               access.sectorCount, revTime_)
        : transferTime(access.sectorCount);
    const std::uint64_t first_track =
        access.startSector / geom_.sectorsPerTrack();
    const std::uint64_t last_track =
        (access.startSector + access.sectorCount - 1) /
        geom_.sectorsPerTrack();
    t.transfer += (last_track - first_track) * params_.headSwitch;

    ++counters_.accesses;
    counters_.sectors += access.sectorCount;
    if (dist > 0) {
        ++counters_.seeks;
        counters_.seekCylinders += dist;
    } else if (target.head != head_) {
        ++counters_.headSwitches;
    }
    counters_.trackCrossings += last_track - first_track;

    // Advance head state to the end of the access.
    const SectorNum end = access.startSector + access.sectorCount - 1;
    const Chs end_chs = geom_.sectorToChs(end);
    cylinder_ = end_chs.cylinder;
    head_ = end_chs.head;

    return t;
}

} // namespace dtsim
