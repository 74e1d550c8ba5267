/**
 * @file
 * The conventional segment-based controller cache (Section 2.1).
 *
 * The cache memory is divided into a fixed number of equal-size
 * segments, each holding one sequential stream's most recent blocks as
 * a contiguous run. The whole victim segment is replaced when a new
 * stream needs space; the victim policy is configurable (LRU default;
 * FIFO, Random, and RoundRobin per the literature the paper cites).
 */

#ifndef DTSIM_CACHE_SEGMENT_CACHE_HH
#define DTSIM_CACHE_SEGMENT_CACHE_HH

#include <cstdint>
#include <vector>

#include "cache/controller_cache.hh"
#include "sim/rng.hh"

namespace dtsim {

/** Victim-selection policy for segment replacement. */
enum class SegmentPolicy { LRU, FIFO, Random, RoundRobin };

const char* segmentPolicyName(SegmentPolicy p);

/** Segment-organized controller cache. */
class SegmentCache : public ControllerCache
{
  public:
    /**
     * @param num_segments Number of segments (e.g. 27).
     * @param segment_blocks Blocks per segment (e.g. 32 for 128 KB).
     * @param policy Victim-selection policy.
     * @param seed RNG seed (used by the Random policy only).
     */
    SegmentCache(std::uint64_t num_segments,
                 std::uint64_t segment_blocks,
                 SegmentPolicy policy = SegmentPolicy::LRU,
                 std::uint64_t seed = 1);

    std::uint64_t lookupPrefix(BlockNum start,
                               std::uint64_t count) override;

    /**
     * Exactly lookupPrefix(b, 1) for b = start, start + 1, ... while
     * each call hits, one segment scan per piece instead of per
     * block: a piece ends where the serving segment ends or where a
     * lower-index segment (which findSegment prefers) starts.
     */
    std::uint64_t lookupPrefixBlockwise(BlockNum start,
                                        std::uint64_t count) override;

    bool contains(BlockNum block) const override;
    using ControllerCache::insertRun;
    void insertRun(BlockNum start, std::uint64_t count,
                   std::uint64_t spec_offset) override;
    void invalidateRange(BlockNum start, std::uint64_t count) override;

    std::uint64_t
    capacityBlocks() const override
    {
        return start_.size() * segmentBlocks_;
    }

    std::uint64_t usedBlocks() const override;

    /** Number of segments currently holding data. */
    std::uint64_t activeSegments() const { return validCount_; }

    /** Whole-segment replacements performed so far. */
    std::uint64_t replacements() const { return replacements_; }

  private:
    /**
     * Bounds of an unused segment: the empty interval [kNone, kNone).
     * Containment is the single unsigned test b - start < end - start,
     * which an empty interval never passes, and no block a valid run
     * can append at equals kNone.
     */
    static constexpr BlockNum kNone = ~BlockNum{0};

    bool isValid(std::size_t i) const { return start_[i] != kNone; }

    /** True if segment `i` holds `block`. */
    bool
    holds(std::size_t i, BlockNum block) const
    {
        return block - start_[i] < end_[i] - start_[i];
    }

    /** Unconsumed speculative blocks in segment `i`. */
    std::uint64_t specBlocks(std::size_t i) const;

    /**
     * Account for the host consuming [c_lo, c_hi) inside segment `i`:
     * speculative blocks consumed count as used, speculative blocks
     * skipped over count as wasted.
     */
    void consumeSpec(std::size_t i, BlockNum c_lo, BlockNum c_hi);

    /** Index of the lowest-index segment containing `block`, or -1. */
    int findSegment(BlockNum block) const;

    /** Pick a victim segment index (an invalid one if any). */
    std::size_t pickVictim();

    /** Mark segment `i` unused. */
    void drop(std::size_t i);

    // One entry per segment, structure-of-arrays so each scan touches
    // only the fields it tests. A valid segment caches the contiguous
    // run [start_, end_); blocks in [max(start_, specFrom_), end_)
    // were read ahead speculatively and not yet consumed (a run is
    // contiguous, so the unconsumed speculative part is a suffix).
    std::vector<BlockNum> start_;
    std::vector<BlockNum> end_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint64_t> created_;
    std::vector<BlockNum> specFrom_;
    std::size_t validCount_ = 0;  ///< pickVictim scan fast path
    std::uint64_t segmentBlocks_;
    SegmentPolicy policy_;
    Rng rng_;
    std::uint64_t clock_ = 0;
    std::uint64_t replacements_ = 0;
    std::size_t rrCursor_ = 0;
};

} // namespace dtsim

#endif // DTSIM_CACHE_SEGMENT_CACHE_HH
