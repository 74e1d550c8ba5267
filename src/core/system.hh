/**
 * @file
 * The system variants compared throughout Section 6.
 *
 *  - Segm:  blind read-ahead, segment-based cache (the conventional
 *           controller, baseline for all normalized results).
 *  - Block: blind read-ahead, block-based cache.
 *  - NoRA:  read-ahead disabled, block-based cache.
 *  - FOR:   file-oriented read-ahead, block-based cache.
 *
 * Any of them can be combined with HDC by giving the pinned region a
 * nonzero byte budget.
 */

#ifndef DTSIM_CORE_SYSTEM_HH
#define DTSIM_CORE_SYSTEM_HH

#include <cstdint>
#include <string>

#include "array/disk_array.hh"
#include "controller/disk_controller.hh"
#include "fault/fault_config.hh"
#include "hdc/hdc_spec.hh"

namespace dtsim {

/** The compared controller designs. */
enum class SystemKind { Segm, Block, NoRA, FOR };

const char* systemKindName(SystemKind kind);

/** Full configuration of one simulated system. */
struct SystemConfig
{
    SystemKind kind = SystemKind::Segm;

    /** HDC host policy: off | oracle | online + knobs. */
    HdcSpec hdc;

    unsigned disks = 8;
    std::uint64_t stripeUnitBytes = 128 * kKiB;
    DiskParams disk;

    /** RAID-10 mirroring (halves the logical capacity). */
    bool mirrored = false;

    /** Concurrent I/O streams (client connections) during replay. */
    unsigned streams = 128;

    /**
     * Server I/O thread-pool size: records in flight at once. A
     * stream waits (FIFO) for a worker between its sequential
     * records. 0 = one worker per stream.
     */
    unsigned workers = 0;

    SchedulerKind scheduler = SchedulerKind::LOOK;
    SegmentPolicy segmentPolicy = SegmentPolicy::LRU;
    BlockPolicy blockPolicy = BlockPolicy::MRU;

    std::uint64_t seed = 1;

    /** Fault-injection knobs (defaults = off); see docs/FAULTS.md. */
    FaultConfig fault;

    /** Short human-readable description, e.g. "FOR+HDC". */
    std::string label() const;

    /** The controller configuration this system implies. */
    ControllerConfig controllerConfig() const;

    /** The array configuration this system implies. */
    ArrayConfig arrayConfig() const;
};

/**
 * Logical (striped) disk count: mirroring pairs the physical disks,
 * so the striped address space covers half of them.
 */
inline unsigned
logicalDisks(const SystemConfig& s)
{
    return s.mirrored ? s.disks / 2 : s.disks;
}

/**
 * Logical capacity of the array in blocks. Mirroring halves it:
 * logical blocks live on the striped half, the other half replicates
 * them.
 */
inline std::uint64_t
arrayCapacityBlocks(const SystemConfig& s)
{
    return logicalDisks(s) * s.disk.totalBlocks();
}

/**
 * Logical blocks a request may address: arrayCapacityBlocks() less
 * each disk's trailing partial striping unit, which the striping map
 * leaves unused. Equals DiskArray::totalBlocks().
 */
inline std::uint64_t
arrayAddressableBlocks(const SystemConfig& s)
{
    const std::uint64_t unit = s.stripeUnitBytes / s.disk.blockSize;
    return logicalDisks(s) * (s.disk.totalBlocks() / unit * unit);
}

} // namespace dtsim

#endif // DTSIM_CORE_SYSTEM_HH
