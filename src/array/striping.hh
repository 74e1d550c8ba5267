/**
 * @file
 * RAID-0 striping across the disks of an array (Section 2.2).
 *
 * Logical array blocks are grouped into fixed-size striping units that
 * are laid out round-robin across the physical disks. The unit size is
 * the key tunable the paper sweeps in Figures 7, 9, and 11.
 */

#ifndef DTSIM_ARRAY_STRIPING_HH
#define DTSIM_ARRAY_STRIPING_HH

#include <cstdint>
#include <vector>

#include "disk/geometry.hh"

namespace dtsim {

/** Block number in the array's logical address space. */
using ArrayBlock = std::uint64_t;

/** A physical placement of one logical block. */
struct PhysicalLoc
{
    unsigned disk;
    BlockNum block;

    bool
    operator==(const PhysicalLoc& o) const
    {
        return disk == o.disk && block == o.block;
    }
};

/** A contiguous per-disk piece of a logical request. */
struct SubRange
{
    unsigned disk;
    BlockNum start;             ///< Local block on that disk.
    std::uint64_t count;
    std::uint64_t logicalOffset; ///< Offset within the logical run.
};

/** Round-robin striping map. */
class StripingMap
{
  public:
    /**
     * @param disks Number of disks (>= 1).
     * @param unit_blocks Striping unit in 4 KB blocks (>= 1).
     * @param per_disk_blocks Capacity of each disk in blocks.
     */
    StripingMap(unsigned disks, std::uint64_t unit_blocks,
                std::uint64_t per_disk_blocks);

    /** Physical placement of a logical block. */
    PhysicalLoc toPhysical(ArrayBlock lb) const;

    /** Logical block stored at a physical location. */
    ArrayBlock toLogical(unsigned disk, BlockNum block) const;

    /**
     * Split a contiguous logical run into per-disk contiguous
     * sub-ranges (one per striping unit touched).
     */
    std::vector<SubRange> split(ArrayBlock start,
                                std::uint64_t count) const;

    /**
     * split() into a caller-owned vector (appended to), so per-request
     * callers can reuse one buffer instead of allocating each time.
     */
    void splitInto(ArrayBlock start, std::uint64_t count,
                   std::vector<SubRange>& out) const;

    unsigned disks() const { return disks_; }
    std::uint64_t unitBlocks() const { return unit_; }

    /** Capacity of the whole array in logical blocks. */
    std::uint64_t
    totalBlocks() const
    {
        return static_cast<std::uint64_t>(disks_) * perDisk_;
    }

    /**
     * Logical blocks the map can address: whole striping units only,
     * since each disk's trailing partial unit is unused.
     */
    std::uint64_t
    addressableBlocks() const
    {
        return static_cast<std::uint64_t>(disks_) * (perDisk_ / unit_) *
               unit_;
    }

  private:
    unsigned disks_;
    std::uint64_t unit_;
    std::uint64_t perDisk_;
};

} // namespace dtsim

#endif // DTSIM_ARRAY_STRIPING_HH
