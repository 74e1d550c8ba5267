/**
 * @file
 * Whole-disk fault model of a mirrored array: configuration, the
 * array-wide counters, and per-disk health.
 *
 * Plain data only: the config subsystem binds and validates
 * FaultConfig as the `fault.*` group, and the DiskArray owns the
 * health vector and counters, schedules the scripted kill and repair,
 * and routes degraded reads and rebuild traffic. The full narrative is
 * docs/FAULTS.md.
 *
 * A default-constructed FaultConfig kills no disk and leaves every run
 * byte-identical to one without the fault model.
 */

#ifndef DTSIM_FAULT_FAULT_CONFIG_HH
#define DTSIM_FAULT_FAULT_CONFIG_HH

#include <cstdint>

#include "sim/ticks.hh"

namespace dtsim {

/**
 * Fault knobs, bound as the `fault.*` parameter group.
 *
 * At `killAtTicks` disk `killDisk` dies. Reads are redirected to the
 * RAID-1/0 mirror partner (unmirrored arrays abort with a
 * diagnostic). At `repairAtTicks` the disk comes back and a
 * sequential rebuild of `rebuildBlocks` blocks (0 = the whole disk)
 * is injected in chunks of `rebuildChunkBlocks`, competing with
 * foreground I/O.
 */
struct FaultConfig
{
    Tick killAtTicks = 0;            ///< Disk-kill tick; 0 = never.
    unsigned killDisk = 0;           ///< Which disk dies.
    Tick repairAtTicks = 0;          ///< Repair tick; 0 = never.
    std::uint64_t rebuildBlocks = 32768;   ///< Rebuild span; 0 = all.
    std::uint64_t rebuildChunkBlocks = 256; ///< Blocks per rebuild job.

    /** True when a disk kill is scripted. */
    bool
    enabled() const
    {
        return killAtTicks > 0;
    }
};

/**
 * Every fault and recovery action, counted once array-wide. Exported
 * as the sim.fault.* StatGroup (names match the fields verbatim).
 */
struct FaultCounters
{
    std::uint64_t diskFailures = 0;     ///< Whole-disk kill events.
    std::uint64_t diskRepairs = 0;      ///< Repair events.
    std::uint64_t degradedReads = 0;    ///< Reads re-routed off a
                                        ///< dead replica.
    std::uint64_t degradedWrites = 0;   ///< Writes that reached only
                                        ///< one replica.
    std::uint64_t rebuildJobs = 0;      ///< Rebuild media jobs started.
    std::uint64_t rebuildBlocks = 0;    ///< Blocks copied by rebuild.

    /** True when anything at all happened. */
    bool
    any() const
    {
        return diskFailures || diskRepairs || degradedReads ||
               degradedWrites || rebuildJobs;
    }
};

/** Health of one physical disk. */
enum class DiskHealth
{
    Alive,      ///< Serving I/O normally.
    Dead,       ///< Killed; no reads, writes are dropped (lost).
    Rebuilding, ///< Back online, absorbing writes + rebuild traffic.
};

} // namespace dtsim

#endif // DTSIM_FAULT_FAULT_CONFIG_HH
