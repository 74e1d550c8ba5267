/**
 * @file
 * Abstract interface of the read-ahead part of a disk controller
 * cache.
 *
 * Two concrete organizations exist: the conventional segment-based
 * cache (SegmentCache) and the block-based pool the paper introduces
 * for FOR (BlockCache). Both operate on 4 KB block numbers local to
 * one disk.
 */

#ifndef DTSIM_CACHE_CONTROLLER_CACHE_HH
#define DTSIM_CACHE_CONTROLLER_CACHE_HH

#include <cstdint>

#include "disk/geometry.hh"

namespace dtsim {

/**
 * Read-ahead accuracy accounting, maintained by every controller
 * cache. A block inserted beyond the demand portion of a media access
 * is *speculative*; it counts as used the first time the host consumes
 * it and as wasted if it is evicted or invalidated while still
 * unconsumed. used/inserted is the paper's read-ahead accuracy.
 */
struct RaCounters
{
    std::uint64_t specInserted = 0;  ///< speculative blocks cached
    std::uint64_t specUsed = 0;      ///< later consumed by the host
    std::uint64_t specWasted = 0;    ///< dropped without being used

    /** Fraction of speculative blocks the host eventually consumed. */
    double
    accuracy() const
    {
        return specInserted ? static_cast<double>(specUsed) /
                                  static_cast<double>(specInserted)
                            : 0.0;
    }
};

/**
 * Read-ahead cache interface.
 *
 * The controller looks up the *prefix* of a request that is cached
 * (sequential streams hit on read-ahead data in order), inserts the
 * contiguous runs it reads from the media, and invalidates or updates
 * ranges on writes.
 */
class ControllerCache
{
  public:
    virtual ~ControllerCache() = default;

    /**
     * Count how many leading blocks of [start, start+count) are
     * cached, marking them as used (served to the host).
     *
     * @return Length of the cached prefix, in blocks.
     */
    virtual std::uint64_t lookupPrefix(BlockNum start,
                                       std::uint64_t count) = 0;

    /**
     * Exactly equivalent to calling lookupPrefix(start + k, 1) for
     * k = 0, 1, ... while each call hits, but a single virtual call
     * that each cache answers a run at a time. The controller's
     * cached-prefix walk probes the read-ahead cache this way.
     */
    virtual std::uint64_t lookupPrefixBlockwise(BlockNum start,
                                                std::uint64_t count) = 0;

    /** True if a single block is present (no recency update). */
    virtual bool contains(BlockNum block) const = 0;

    /**
     * Insert a contiguous run just read from the media. Blocks at
     * offset >= `spec_offset` from `start` were read ahead
     * speculatively (not demanded by the host) and feed the
     * read-ahead accuracy counters.
     */
    virtual void insertRun(BlockNum start, std::uint64_t count,
                           std::uint64_t spec_offset) = 0;

    /** Insert a run that is entirely demand-fetched. */
    void insertRun(BlockNum start, std::uint64_t count)
    {
        insertRun(start, count, count);
    }

    /**
     * Drop any cached copies of [start, start+count); used when the
     * host overwrites blocks on the media.
     */
    virtual void invalidateRange(BlockNum start,
                                 std::uint64_t count) = 0;

    /** Capacity in blocks. */
    virtual std::uint64_t capacityBlocks() const = 0;

    /** Blocks currently held. */
    virtual std::uint64_t usedBlocks() const = 0;

    /** Read-ahead accuracy counters. */
    const RaCounters& raCounters() const { return ra_; }

  protected:
    RaCounters ra_;
};

} // namespace dtsim

#endif // DTSIM_CACHE_CONTROLLER_CACHE_HH
