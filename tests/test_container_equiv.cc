/**
 * @file
 * Differential tests proving the slab/flat-table container
 * replacements, and the structure-of-arrays segment cache, behave
 * identically to the implementations they replaced.
 *
 * Each test keeps a reference implementation built from std::list,
 * std::unordered_map, std::multimap or an array of structs — what the
 * model used before the hot-path optimization — and drives it and the
 * production container with the same randomized, seeded operation
 * stream, asserting every observable output matches: return values,
 * eviction and writeback sequences, pop order, counters, and final
 * contents.
 * The streams are seeded with dtsim::Rng so a failure replays exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/block_cache.hh"
#include "cache/hdc_store.hh"
#include "cache/segment_cache.hh"
#include "controller/scheduler.hh"
#include "fs/buffer_cache.hh"
#include "sim/flat_table.hh"
#include "sim/rng.hh"

namespace dtsim {
namespace {

// ---------------------------------------------------------------------
// BlockCache vs. std::list + std::unordered_map reference.
// ---------------------------------------------------------------------

/**
 * The block-pool cache as it was before the slab rewrite: two
 * std::lists (used front = most recently consumed, unused front =
 * oldest insertion) indexed by an unordered_map of list iterators.
 */
class RefBlockCache
{
  public:
    RefBlockCache(std::uint64_t capacity, BlockPolicy policy)
        : capacity_(capacity), policy_(policy)
    {
    }

    std::uint64_t
    lookupPrefix(BlockNum start, std::uint64_t count)
    {
        std::uint64_t hits = 0;
        while (hits < count) {
            auto it = map_.find(start + hits);
            if (it == map_.end())
                break;
            Node& node = it->second;
            if (node.it->spec) {
                node.it->spec = false;
                ++ra_.specUsed;
            }
            if (node.used) {
                used_.splice(used_.begin(), used_, node.it);
            } else {
                used_.splice(used_.begin(), unused_, node.it);
                node.used = true;
            }
            ++hits;
        }
        return hits;
    }

    void
    insertRun(BlockNum start, std::uint64_t count,
              std::uint64_t spec_offset)
    {
        for (std::uint64_t i = 0; i < count; ++i) {
            const BlockNum b = start + i;
            if (map_.count(b))
                continue;
            if (map_.size() >= capacity_)
                evictOne();
            const bool spec = i >= spec_offset;
            if (spec)
                ++ra_.specInserted;
            unused_.push_back(Entry{b, spec});
            map_[b] = Node{std::prev(unused_.end()), false};
        }
    }

    void
    invalidateRange(BlockNum start, std::uint64_t count)
    {
        for (std::uint64_t i = 0; i < count; ++i) {
            auto it = map_.find(start + i);
            if (it == map_.end())
                continue;
            Node& node = it->second;
            if (node.it->spec)
                ++ra_.specWasted;
            (node.used ? used_ : unused_).erase(node.it);
            map_.erase(it);
        }
    }

    bool contains(BlockNum b) const { return map_.count(b) != 0; }
    std::uint64_t usedBlocks() const { return map_.size(); }
    std::uint64_t evictions() const { return evictions_; }
    const RaCounters& raCounters() const { return ra_; }

  private:
    struct Entry
    {
        BlockNum block;
        bool spec;
    };

    struct Node
    {
        std::list<Entry>::iterator it;
        bool used;
    };

    void
    evictOne()
    {
        ++evictions_;
        if (!used_.empty()) {
            // MRU evicts the most recently consumed (front); LRU the
            // least recently consumed (back).
            auto it = policy_ == BlockPolicy::MRU ? used_.begin()
                                                  : std::prev(used_.end());
            map_.erase(it->block);
            used_.erase(it);
            return;
        }
        // Nothing consumed yet: both policies drop the oldest
        // unconsumed read-ahead block.
        if (unused_.front().spec)
            ++ra_.specWasted;
        map_.erase(unused_.front().block);
        unused_.pop_front();
    }

    std::uint64_t capacity_;
    BlockPolicy policy_;
    std::list<Entry> used_;
    std::list<Entry> unused_;
    std::unordered_map<BlockNum, Node> map_;
    std::uint64_t evictions_ = 0;
    RaCounters ra_;
};

void
driveBlockCaches(BlockPolicy policy, std::uint64_t seed)
{
    constexpr std::uint64_t kCapacity = 48;
    constexpr BlockNum kSpace = 256;  // small → heavy alias pressure

    BlockCache real(kCapacity, policy);
    RefBlockCache ref(kCapacity, policy);
    Rng rng(seed);

    for (int op = 0; op < 20000; ++op) {
        const BlockNum start = rng.below(kSpace);
        const std::uint64_t count = 1 + rng.below(12);
        switch (rng.below(4)) {
          case 0:
          case 1: {
            const std::uint64_t spec = rng.below(count + 1);
            real.insertRun(start, count, spec);
            ref.insertRun(start, count, spec);
            break;
          }
          case 2:
            ASSERT_EQ(real.lookupPrefix(start, count),
                      ref.lookupPrefix(start, count))
                << "op " << op << " seed " << seed;
            break;
          case 3:
            real.invalidateRange(start, count);
            ref.invalidateRange(start, count);
            break;
        }
        ASSERT_EQ(real.usedBlocks(), ref.usedBlocks())
            << "op " << op << " seed " << seed;
    }

    EXPECT_EQ(real.evictions(), ref.evictions());
    EXPECT_EQ(real.raCounters().specInserted,
              ref.raCounters().specInserted);
    EXPECT_EQ(real.raCounters().specUsed, ref.raCounters().specUsed);
    EXPECT_EQ(real.raCounters().specWasted,
              ref.raCounters().specWasted);
    for (BlockNum b = 0; b < kSpace; ++b)
        ASSERT_EQ(real.contains(b), ref.contains(b)) << "block " << b;
}

TEST(ContainerEquiv, BlockCacheMru)
{
    for (std::uint64_t seed : {1u, 2u, 3u})
        driveBlockCaches(BlockPolicy::MRU, seed);
}

TEST(ContainerEquiv, BlockCacheLru)
{
    for (std::uint64_t seed : {4u, 5u, 6u})
        driveBlockCaches(BlockPolicy::LRU, seed);
}

// ---------------------------------------------------------------------
// SegmentCache vs. the array-of-structs reference.
// ---------------------------------------------------------------------

/**
 * The segment cache as it was before the structure-of-arrays rewrite:
 * an array of Segment structs with a `valid` flag, scanned once per
 * lookup, whose blockwise lookup is the per-block loop
 * lookupPrefix(b, 1) for b = start, start + 1, ... The accessors
 * below the model code let driveSegmentCaches aim operations at
 * segments and check that its streams reach the cases the bulk
 * lookup has to get right.
 */
class RefSegmentCache
{
  public:
    RefSegmentCache(std::uint64_t num_segments,
                    std::uint64_t segment_blocks, SegmentPolicy policy,
                    std::uint64_t seed)
        : segments_(num_segments), segmentBlocks_(segment_blocks),
          policy_(policy), rng_(seed)
    {
    }

    std::uint64_t
    lookupPrefix(BlockNum start, std::uint64_t count)
    {
        ++clock_;
        const int idx = findSegment(start);
        if (idx < 0)
            return 0;
        Segment& s = segments_[static_cast<std::size_t>(idx)];
        s.lastUse = clock_;
        const std::uint64_t in_seg = s.end - start;
        std::uint64_t hits = std::min(count, in_seg);
        consumeSpec(s, start, start + hits);
        while (hits < count) {
            const int nxt = findSegment(start + hits);
            if (nxt < 0)
                break;
            Segment& n = segments_[static_cast<std::size_t>(nxt)];
            n.lastUse = clock_;
            const std::uint64_t more =
                std::min(count - hits, n.end - (start + hits));
            consumeSpec(n, start + hits, start + hits + more);
            hits += more;
        }
        return hits;
    }

    std::uint64_t
    lookupPrefixBlockwise(BlockNum start, std::uint64_t count)
    {
        std::uint64_t hits = 0;
        while (hits < count && lookupPrefix(start + hits, 1) == 1)
            ++hits;
        return hits;
    }

    bool contains(BlockNum block) const { return findSegment(block) >= 0; }

    void
    insertRun(BlockNum start, std::uint64_t count,
              std::uint64_t spec_offset)
    {
        if (count == 0)
            return;
        ++clock_;

        const BlockNum run_end = start + count;
        const BlockNum run_spec_lo = start + std::min(spec_offset, count);

        int idx = -1;
        int containing = -1;
        for (std::size_t i = 0; i < segments_.size(); ++i) {
            const Segment& s = segments_[i];
            if (!s.valid)
                continue;
            if (s.end == start) {
                idx = static_cast<int>(i);
                break;
            }
            if (containing < 0 && start >= s.start && start < s.end)
                containing = static_cast<int>(i);
        }
        if (idx < 0)
            idx = containing;
        if (idx >= 0) {
            Segment& s = segments_[static_cast<std::size_t>(idx)];
            const BlockNum spec_lo = std::max(s.start, s.specFrom);
            if (spec_lo < s.end && run_spec_lo > spec_lo) {
                const BlockNum hi = std::min(run_spec_lo, s.end);
                ra_.specUsed += hi - std::max(start, spec_lo);
                if (start > spec_lo)
                    ra_.specWasted += std::min(start, hi) - spec_lo;
            }
            const BlockNum old_end = s.end;
            s.end = std::max(s.end, run_end);
            if (s.end > old_end) {
                const BlockNum new_lo = std::max(old_end, run_spec_lo);
                if (s.end > new_lo)
                    ra_.specInserted += s.end - new_lo;
            }
            s.specFrom = std::max(s.specFrom, run_spec_lo);
            if (s.end - s.start > segmentBlocks_) {
                const BlockNum new_start = s.end - segmentBlocks_;
                const BlockNum trim_spec = std::max(s.start, s.specFrom);
                if (trim_spec < new_start)
                    ra_.specWasted += new_start - trim_spec;
                s.start = new_start;
                s.specFrom = std::max(s.specFrom, new_start);
            }
            s.lastUse = clock_;
            return;
        }

        const std::size_t v = pickVictim();
        Segment& s = segments_[v];
        if (s.valid)
            ra_.specWasted += specBlocks(s);
        else
            ++validCount_;
        s.valid = true;
        s.end = run_end;
        s.start = count > segmentBlocks_ ? s.end - segmentBlocks_ : start;
        s.specFrom = std::max(run_spec_lo, s.start);
        if (s.end > s.specFrom)
            ra_.specInserted += s.end - s.specFrom;
        s.lastUse = clock_;
        s.created = clock_;
    }

    void
    invalidateRange(BlockNum start, std::uint64_t count)
    {
        const BlockNum lo = start;
        const BlockNum hi = start + count;
        for (Segment& s : segments_) {
            if (!s.valid || hi <= s.start || lo >= s.end)
                continue;
            const BlockNum spec_lo = std::max(s.start, s.specFrom);
            if (lo <= s.start && hi >= s.end) {
                ra_.specWasted += specBlocks(s);
                s.valid = false;
                --validCount_;
            } else if (lo <= s.start) {
                if (spec_lo < hi && spec_lo < s.end)
                    ra_.specWasted += std::min(hi, s.end) - spec_lo;
                s.start = hi;
                s.specFrom = std::max(s.specFrom, hi);
            } else {
                if (std::max(spec_lo, lo) < s.end)
                    ra_.specWasted += s.end - std::max(spec_lo, lo);
                s.end = lo;
            }
            if (s.valid && s.start >= s.end) {
                s.valid = false;
                --validCount_;
            }
        }
    }

    std::uint64_t
    usedBlocks() const
    {
        std::uint64_t used = 0;
        for (const Segment& s : segments_)
            if (s.valid)
                used += s.end - s.start;
        return used;
    }

    std::uint64_t
    activeSegments() const
    {
        std::uint64_t n = 0;
        for (const Segment& s : segments_)
            if (s.valid)
                ++n;
        return n;
    }

    std::uint64_t replacements() const { return replacements_; }
    const RaCounters& raCounters() const { return ra_; }

    // Views of the segment table for driveSegmentCaches.
    std::size_t size() const { return segments_.size(); }
    bool valid(std::size_t i) const { return segments_[i].valid; }
    BlockNum start(std::size_t i) const { return segments_[i].start; }
    BlockNum end(std::size_t i) const { return segments_[i].end; }

    int
    findSegment(BlockNum block) const
    {
        for (std::size_t i = 0; i < segments_.size(); ++i) {
            const Segment& s = segments_[i];
            if (s.valid && block >= s.start && block < s.end)
                return static_cast<int>(i);
        }
        return -1;
    }

  private:
    struct Segment
    {
        bool valid = false;
        BlockNum start = 0;
        BlockNum end = 0;
        std::uint64_t lastUse = 0;
        std::uint64_t created = 0;
        BlockNum specFrom = 0;
    };

    std::uint64_t
    specBlocks(const Segment& s) const
    {
        if (!s.valid)
            return 0;
        const BlockNum lo = std::max(s.start, s.specFrom);
        return lo < s.end ? s.end - lo : 0;
    }

    void
    consumeSpec(Segment& s, BlockNum c_lo, BlockNum c_hi)
    {
        const BlockNum spec_lo = std::max(s.start, s.specFrom);
        if (spec_lo >= s.end || c_hi <= spec_lo)
            return;
        const BlockNum hi = std::min(c_hi, s.end);
        ra_.specUsed += hi - std::max(c_lo, spec_lo);
        if (c_lo > spec_lo)
            ra_.specWasted += c_lo - spec_lo;
        s.specFrom = std::max(s.specFrom, hi);
    }

    std::size_t
    pickVictim()
    {
        if (validCount_ < segments_.size())
            for (std::size_t i = 0; i < segments_.size(); ++i)
                if (!segments_[i].valid)
                    return i;

        ++replacements_;
        switch (policy_) {
          case SegmentPolicy::LRU: {
            std::size_t best = 0;
            for (std::size_t i = 1; i < segments_.size(); ++i)
                if (segments_[i].lastUse < segments_[best].lastUse)
                    best = i;
            return best;
          }
          case SegmentPolicy::FIFO: {
            std::size_t best = 0;
            for (std::size_t i = 1; i < segments_.size(); ++i)
                if (segments_[i].created < segments_[best].created)
                    best = i;
            return best;
          }
          case SegmentPolicy::Random:
            return static_cast<std::size_t>(
                rng_.below(segments_.size()));
          case SegmentPolicy::RoundRobin: {
            const std::size_t v = rrCursor_;
            rrCursor_ = (rrCursor_ + 1) % segments_.size();
            return v;
          }
        }
        return 0;
    }

    std::vector<Segment> segments_;
    std::size_t validCount_ = 0;
    std::uint64_t segmentBlocks_;
    SegmentPolicy policy_;
    Rng rng_;
    std::uint64_t clock_ = 0;
    std::uint64_t replacements_ = 0;
    std::size_t rrCursor_ = 0;
    RaCounters ra_;
};

/** How often a segment-cache op stream reached each hard case. */
struct SegmentCoverage
{
    std::uint64_t longRuns = 0;        ///< a hit run longer than a segment
    std::uint64_t overlaps = 0;        ///< two valid segments overlapped
    std::uint64_t lowerStarts = 0;     ///< lower-index segment took over
    std::uint64_t headCuts = 0;
    std::uint64_t tailCuts = 0;
    std::uint64_t middleCuts = 0;
    std::uint64_t fullCuts = 0;
};

/** True if two valid segments of `ref` share a block. */
bool
anyOverlap(const RefSegmentCache& ref)
{
    for (std::size_t i = 0; i < ref.size(); ++i)
        for (std::size_t j = i + 1; j < ref.size(); ++j)
            if (ref.valid(i) && ref.valid(j) &&
                ref.start(i) < ref.end(j) && ref.start(j) < ref.end(i))
                return true;
    return false;
}

/** A random valid segment of `ref`, or -1 if none is valid. */
int
pickSegment(const RefSegmentCache& ref, Rng& rng)
{
    const std::size_t first = rng.below(ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k) {
        const std::size_t i = (first + k) % ref.size();
        if (ref.valid(i))
            return static_cast<int>(i);
    }
    return -1;
}

void
driveSegmentCaches(SegmentPolicy policy, std::uint64_t seed,
                   SegmentCoverage& cov)
{
    constexpr std::uint64_t kSegments = 6;
    constexpr std::uint64_t kSegBlocks = 8;
    constexpr BlockNum kSpace = 96;

    SegmentCache real(kSegments, kSegBlocks, policy, seed);
    RefSegmentCache ref(kSegments, kSegBlocks, policy, seed);
    Rng rng(seed * 7919 + 1);

    for (int op = 0; op < 20000; ++op) {
        const int seg = pickSegment(ref, rng);
        const bool aim = seg >= 0 && rng.chance(0.6);
        const std::size_t s = aim ? static_cast<std::size_t>(seg) : 0;
        BlockNum start = rng.below(kSpace);
        const std::uint64_t count = 1 + rng.below(kSegBlocks * 5 / 2);
        switch (rng.below(8)) {
          case 0:
          case 1:
          case 2: {
            // Stream continuations append at a segment's end.
            if (aim)
                start = ref.end(s);
            const std::uint64_t spec = rng.below(count + 1);
            real.insertRun(start, count, spec);
            ref.insertRun(start, count, spec);
            break;
          }
          case 3:
            if (aim)
                start = ref.start(s) +
                        rng.below(ref.end(s) - ref.start(s));
            ASSERT_EQ(real.lookupPrefix(start, count),
                      ref.lookupPrefix(start, count))
                << "op " << op << " seed " << seed;
            break;
          case 4:
          case 5: {
            if (aim)
                start = ref.start(s) +
                        rng.below(ref.end(s) - ref.start(s));
            // Which segment serves each block, before the lookup.
            std::vector<int> owner(count);
            for (std::uint64_t k = 0; k < count; ++k)
                owner[k] = ref.findSegment(start + k);
            const std::uint64_t hits =
                ref.lookupPrefixBlockwise(start, count);
            ASSERT_EQ(real.lookupPrefixBlockwise(start, count), hits)
                << "op " << op << " seed " << seed;
            if (hits > kSegBlocks)
                ++cov.longRuns;
            for (std::uint64_t k = 1; k < hits; ++k)
                if (owner[k] < owner[k - 1] &&
                    ref.start(static_cast<std::size_t>(owner[k])) ==
                        start + k)
                    ++cov.lowerStarts;
            break;
          }
          case 6: {
            std::uint64_t n = count;
            if (aim) {
                // Cut the head, the tail, the middle, or all of a
                // segment.
                const BlockNum lo = ref.start(s);
                const BlockNum hi = ref.end(s);
                const std::uint64_t len = hi - lo;
                switch (rng.below(4)) {
                  case 0:
                    start = lo - std::min<BlockNum>(lo, rng.below(3));
                    n = lo - start + 1 + rng.below(len);
                    break;
                  case 1:
                    start = lo + rng.below(len);
                    n = hi - start + rng.below(3);
                    break;
                  case 2:
                    start = lo + rng.below(len);
                    n = 1 + rng.below(hi - start);
                    break;
                  default:
                    start = lo - std::min<BlockNum>(lo, rng.below(3));
                    n = hi - start + rng.below(3);
                    break;
                }
                const BlockNum cut_hi = start + n;
                if (start <= lo && cut_hi >= hi)
                    ++cov.fullCuts;
                else if (start <= lo)
                    ++cov.headCuts;
                else if (cut_hi >= hi)
                    ++cov.tailCuts;
                else
                    ++cov.middleCuts;
            }
            real.invalidateRange(start, n);
            ref.invalidateRange(start, n);
            break;
          }
          case 7:
            for (BlockNum b = start; b < start + count; ++b)
                ASSERT_EQ(real.contains(b), ref.contains(b))
                    << "op " << op << " block " << b;
            break;
        }
        if (anyOverlap(ref))
            ++cov.overlaps;
        ASSERT_EQ(real.raCounters().specInserted,
                  ref.raCounters().specInserted)
            << "op " << op << " seed " << seed;
        ASSERT_EQ(real.raCounters().specUsed, ref.raCounters().specUsed)
            << "op " << op << " seed " << seed;
        ASSERT_EQ(real.raCounters().specWasted,
                  ref.raCounters().specWasted)
            << "op " << op << " seed " << seed;
        ASSERT_EQ(real.usedBlocks(), ref.usedBlocks())
            << "op " << op << " seed " << seed;
        ASSERT_EQ(real.activeSegments(), ref.activeSegments())
            << "op " << op << " seed " << seed;
        ASSERT_EQ(real.replacements(), ref.replacements())
            << "op " << op << " seed " << seed;
    }
    for (BlockNum b = 0; b < kSpace + 3 * kSegBlocks; ++b)
        ASSERT_EQ(real.contains(b), ref.contains(b)) << "block " << b;
}

void
expectSegmentCoverage(SegmentPolicy policy,
                      std::initializer_list<std::uint64_t> seeds)
{
    SegmentCoverage cov;
    for (std::uint64_t seed : seeds) {
        driveSegmentCaches(policy, seed, cov);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // The streams must reach every case the bulk lookup and the
    // layout have to get right, not only the easy ones.
    EXPECT_GT(cov.longRuns, 0u);
    EXPECT_GT(cov.overlaps, 0u);
    EXPECT_GT(cov.lowerStarts, 0u);
    EXPECT_GT(cov.headCuts, 0u);
    EXPECT_GT(cov.tailCuts, 0u);
    EXPECT_GT(cov.middleCuts, 0u);
    EXPECT_GT(cov.fullCuts, 0u);
}

TEST(ContainerEquiv, SegmentCacheLru)
{
    expectSegmentCoverage(SegmentPolicy::LRU, {51u, 52u, 53u});
}

TEST(ContainerEquiv, SegmentCacheFifo)
{
    expectSegmentCoverage(SegmentPolicy::FIFO, {54u, 55u, 56u});
}

TEST(ContainerEquiv, SegmentCacheRandom)
{
    expectSegmentCoverage(SegmentPolicy::Random, {57u, 58u, 59u});
}

TEST(ContainerEquiv, SegmentCacheRoundRobin)
{
    expectSegmentCoverage(SegmentPolicy::RoundRobin, {60u, 61u, 62u});
}

// ---------------------------------------------------------------------
// BufferCache vs. std::list + std::unordered_map reference.
// ---------------------------------------------------------------------

/** The host buffer cache as a plain LRU list (front = MRU). */
class RefBufferCache
{
  public:
    explicit RefBufferCache(std::uint64_t capacity)
        : capacity_(capacity)
    {
    }

    bool
    readHit(ArrayBlock block)
    {
        ++stats_.readLookups;
        auto it = map_.find(block);
        if (it == map_.end()) {
            ++stats_.readMisses;
            return false;
        }
        lru_.splice(lru_.begin(), lru_, it->second);
        return true;
    }

    void
    install(ArrayBlock block, std::vector<ArrayBlock>& writebacks)
    {
        auto it = map_.find(block);
        if (it != map_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            return;
        }
        if (map_.size() >= capacity_)
            evictOne(writebacks);
        lru_.push_front(Entry{block, false});
        map_[block] = lru_.begin();
    }

    bool
    write(ArrayBlock block, std::vector<ArrayBlock>& writebacks)
    {
        ++stats_.writeLookups;
        auto it = map_.find(block);
        if (it != map_.end()) {
            if (it->second->dirty)
                ++stats_.writeMerges;
            it->second->dirty = true;
            lru_.splice(lru_.begin(), lru_, it->second);
            return true;
        }
        if (map_.size() >= capacity_)
            evictOne(writebacks);
        lru_.push_front(Entry{block, true});
        map_[block] = lru_.begin();
        return false;
    }

    std::vector<ArrayBlock>
    sync()
    {
        std::vector<ArrayBlock> dirty;
        for (Entry& e : lru_) {
            if (e.dirty) {
                dirty.push_back(e.block);
                e.dirty = false;
            }
        }
        return dirty;
    }

    std::vector<ArrayBlock>
    dropAll()
    {
        std::vector<ArrayBlock> dirty = sync();
        lru_.clear();
        map_.clear();
        return dirty;
    }

    bool contains(ArrayBlock b) const { return map_.count(b) != 0; }
    std::uint64_t size() const { return map_.size(); }
    const BufferCacheStats& stats() const { return stats_; }

  private:
    struct Entry
    {
        ArrayBlock block;
        bool dirty;
    };

    void
    evictOne(std::vector<ArrayBlock>& writebacks)
    {
        const Entry victim = lru_.back();
        lru_.pop_back();
        map_.erase(victim.block);
        ++stats_.evictions;
        if (victim.dirty) {
            writebacks.push_back(victim.block);
            ++stats_.dirtyWritebacks;
        }
    }

    std::uint64_t capacity_;
    std::list<Entry> lru_;
    std::unordered_map<ArrayBlock, std::list<Entry>::iterator> map_;
    BufferCacheStats stats_;
};

TEST(ContainerEquiv, BufferCache)
{
    constexpr std::uint64_t kCapacity = 64;
    constexpr ArrayBlock kSpace = 512;

    for (std::uint64_t seed : {11u, 12u, 13u}) {
        BufferCache real(kCapacity);
        RefBufferCache ref(kCapacity);
        Rng rng(seed);

        for (int op = 0; op < 20000; ++op) {
            const ArrayBlock b = rng.below(kSpace);
            std::vector<ArrayBlock> wb_real, wb_ref;
            switch (rng.below(8)) {
              case 0:
              case 1:
              case 2:
                ASSERT_EQ(real.readHit(b), ref.readHit(b))
                    << "op " << op << " seed " << seed;
                break;
              case 3:
              case 4:
                real.install(b, wb_real);
                ref.install(b, wb_ref);
                break;
              case 5:
              case 6:
                ASSERT_EQ(real.write(b, wb_real), ref.write(b, wb_ref))
                    << "op " << op << " seed " << seed;
                break;
              case 7:
                if (rng.chance(0.1)) {
                    // Rare full drop / sync, exact order compared.
                    if (rng.chance(0.5))
                        ASSERT_EQ(real.sync(), ref.sync())
                            << "op " << op << " seed " << seed;
                    else
                        ASSERT_EQ(real.dropAll(), ref.dropAll())
                            << "op " << op << " seed " << seed;
                }
                break;
            }
            // Dirty evictions must happen at the same ops with the
            // same victims.
            ASSERT_EQ(wb_real, wb_ref) << "op " << op << " seed "
                                       << seed;
            ASSERT_EQ(real.size(), ref.size());
        }

        EXPECT_EQ(real.stats().readLookups, ref.stats().readLookups);
        EXPECT_EQ(real.stats().readMisses, ref.stats().readMisses);
        EXPECT_EQ(real.stats().writeLookups, ref.stats().writeLookups);
        EXPECT_EQ(real.stats().writeMerges, ref.stats().writeMerges);
        EXPECT_EQ(real.stats().evictions, ref.stats().evictions);
        EXPECT_EQ(real.stats().dirtyWritebacks,
                  ref.stats().dirtyWritebacks);
        EXPECT_EQ(real.sync(), ref.sync());
        for (ArrayBlock b = 0; b < kSpace; ++b)
            ASSERT_EQ(real.contains(b), ref.contains(b));
    }
}

// ---------------------------------------------------------------------
// SweepScheduler vs. std::multimap reference.
// ---------------------------------------------------------------------

/**
 * The cylinder-keyed job queue the sweep schedulers used before the
 * bucket/bitmap rewrite: a multimap, where equal-key entries keep
 * insertion order, a lower_bound pick is the oldest job of its
 * cylinder and a prev(upper_bound) pick the newest.
 */
class RefSweepScheduler
{
  public:
    explicit RefSweepScheduler(SweepScheduler::Kind kind) : kind_(kind)
    {
    }

    void
    push(std::uint32_t cylinder, std::uint64_t seq)
    {
        jobs_.emplace(cylinder, seq);
    }

    /** Returns the seq of the popped job; jobs_ must be non-empty. */
    std::uint64_t
    pop(std::uint32_t cylinder)
    {
        using Kind = SweepScheduler::Kind;
        switch (kind_) {
          case Kind::LOOK: {
            if (goingUp_) {
                auto it = jobs_.lower_bound(cylinder);
                if (it != jobs_.end())
                    return take(it);
                goingUp_ = false;
                return take(std::prev(jobs_.end()));
            }
            auto it = jobs_.upper_bound(cylinder);
            if (it != jobs_.begin())
                return take(std::prev(it));
            goingUp_ = true;
            return take(jobs_.begin());
          }
          case Kind::CLOOK: {
            auto it = jobs_.lower_bound(cylinder);
            if (it == jobs_.end())
                it = jobs_.begin();    // Wrap to the lowest.
            return take(it);
          }
          case Kind::SSTF: {
            auto up = jobs_.lower_bound(cylinder);
            auto down_end = jobs_.lower_bound(cylinder);
            const bool has_up = up != jobs_.end();
            const bool has_down = down_end != jobs_.begin();
            if (!has_up)
                return take(std::prev(down_end));
            if (!has_down)
                return take(up);
            auto down = std::prev(down_end);
            const std::uint32_t d_up = up->first - cylinder;
            const std::uint32_t d_down = cylinder - down->first;
            return d_down <= d_up ? take(down) : take(up);
          }
        }
        return 0;
    }

    std::size_t size() const { return jobs_.size(); }

  private:
    std::uint64_t
    take(std::multimap<std::uint32_t, std::uint64_t>::iterator it)
    {
        const std::uint64_t seq = it->second;
        jobs_.erase(it);
        return seq;
    }

    SweepScheduler::Kind kind_;
    std::multimap<std::uint32_t, std::uint64_t> jobs_;
    bool goingUp_ = true;
};

void
driveSchedulers(SweepScheduler::Kind kind, SchedulerKind factory_kind,
                std::uint64_t seed)
{
    constexpr std::uint32_t kCylinders = 600;

    std::unique_ptr<Scheduler> real = makeScheduler(factory_kind);
    std::deque<MediaJob> jobs;  // the scheduler does not own them
    RefSweepScheduler ref(kind);
    Rng rng(seed);
    std::uint64_t next_seq = 1;
    std::uint32_t arm = 0;

    for (int op = 0; op < 20000; ++op) {
        if (real->empty() || rng.chance(0.55)) {
            // Bursty pushes, often several to the same cylinder so
            // equal-key FIFO order inside a bucket is exercised.
            const std::uint32_t cyl = rng.below(kCylinders);
            const std::uint64_t burst = 1 + rng.below(3);
            for (std::uint64_t i = 0; i < burst; ++i) {
                MediaJob& job = jobs.emplace_back();
                job.cylinder = cyl;
                job.seq = next_seq;
                real->push(&job);
                ref.push(cyl, next_seq);
                ++next_seq;
            }
        } else {
            MediaJob* job = real->pop(arm);
            ASSERT_NE(job, nullptr);
            ASSERT_EQ(job->seq, ref.pop(arm))
                << "op " << op << " seed " << seed << " arm " << arm;
            // The arm follows the serviced job, as in the controller.
            arm = job->cylinder;
        }
        ASSERT_EQ(real->size(), ref.size());
    }

    // Drain completely: the tail of the sweep (direction reversals,
    // wrap-around) must match too.
    while (!real->empty()) {
        MediaJob* job = real->pop(arm);
        ASSERT_EQ(job->seq, ref.pop(arm)) << "drain, seed " << seed;
        arm = job->cylinder;
    }
    EXPECT_EQ(ref.size(), 0u);
}

TEST(ContainerEquiv, SweepSchedulerLook)
{
    for (std::uint64_t seed : {21u, 22u, 23u})
        driveSchedulers(SweepScheduler::Kind::LOOK, SchedulerKind::LOOK,
                        seed);
}

TEST(ContainerEquiv, SweepSchedulerClook)
{
    for (std::uint64_t seed : {24u, 25u, 26u})
        driveSchedulers(SweepScheduler::Kind::CLOOK,
                        SchedulerKind::CLOOK, seed);
}

TEST(ContainerEquiv, SweepSchedulerSstf)
{
    for (std::uint64_t seed : {27u, 28u, 29u})
        driveSchedulers(SweepScheduler::Kind::SSTF, SchedulerKind::SSTF,
                        seed);
}

// ---------------------------------------------------------------------
// HdcStore vs. std::unordered_map reference.
// ---------------------------------------------------------------------

TEST(ContainerEquiv, HdcStore)
{
    constexpr std::uint64_t kCapacity = 40;
    constexpr BlockNum kSpace = 160;

    for (std::uint64_t seed : {31u, 32u, 33u}) {
        HdcStore real(kCapacity);
        std::unordered_map<BlockNum, bool> ref;  // block -> dirty
        Rng rng(seed);

        for (int op = 0; op < 20000; ++op) {
            const BlockNum b = rng.below(kSpace);
            switch (rng.below(8)) {
              case 0:
              case 1:
              case 2: {
                const bool want =
                    ref.size() < kCapacity && !ref.count(b);
                ASSERT_EQ(real.pin(b), want)
                    << "op " << op << " seed " << seed;
                if (want)
                    ref[b] = false;
                break;
              }
              case 3: {
                bool was_dirty = false;
                auto it = ref.find(b);
                ASSERT_EQ(real.unpin(b, &was_dirty), it != ref.end());
                if (it != ref.end()) {
                    ASSERT_EQ(was_dirty, it->second);
                    ref.erase(it);
                }
                break;
              }
              case 4:
              case 5: {
                auto it = ref.find(b);
                ASSERT_EQ(real.absorbWrite(b), it != ref.end());
                if (it != ref.end())
                    it->second = true;
                break;
              }
              case 6: {
                std::uint64_t want = 0;
                while (ref.count(b + want))
                    ++want;
                ASSERT_EQ(real.prefixPinned(b, 8),
                          std::min<std::uint64_t>(want, 8));
                break;
              }
              case 7:
                if (rng.chance(0.05)) {
                    // Flush order is unspecified for both
                    // implementations; compare as sets.
                    std::vector<BlockNum> got = real.flush();
                    std::sort(got.begin(), got.end());
                    std::vector<BlockNum> want;
                    for (auto& [blk, dirty] : ref) {
                        if (dirty) {
                            want.push_back(blk);
                            dirty = false;
                        }
                    }
                    std::sort(want.begin(), want.end());
                    ASSERT_EQ(got, want)
                        << "op " << op << " seed " << seed;
                }
                break;
            }
            ASSERT_EQ(real.pinnedBlocks(), ref.size());
        }

        std::uint64_t dirty = 0;
        for (const auto& [blk, is_dirty] : ref) {
            ASSERT_TRUE(real.contains(blk));
            dirty += is_dirty ? 1 : 0;
        }
        EXPECT_EQ(real.dirtyBlocks(), dirty);
        for (BlockNum b = 0; b < kSpace; ++b)
            ASSERT_EQ(real.contains(b), ref.count(b) != 0);
    }
}

// ---------------------------------------------------------------------
// FlatTable vs. std::unordered_map reference.
// ---------------------------------------------------------------------

TEST(ContainerEquiv, FlatTable)
{
    // Heavy insert/erase churn with a small key space stresses the
    // backward-shift deletion and rehashing; clustered keys (runs of
    // consecutive block numbers) stress linear probing.
    for (std::uint64_t seed : {41u, 42u, 43u}) {
        FlatTable<std::uint64_t> real(8);
        std::unordered_map<std::uint64_t, std::uint64_t> ref;
        Rng rng(seed);

        for (int op = 0; op < 30000; ++op) {
            const std::uint64_t key =
                rng.below(64) * 64 + rng.below(24);  // clustered
            switch (rng.below(4)) {
              case 0:
              case 1: {
                const std::uint64_t val = rng.next64();
                const auto [slot, inserted] = real.insert(key, val);
                const auto [it, ref_inserted] = ref.emplace(key, val);
                ASSERT_EQ(inserted, ref_inserted)
                    << "op " << op << " seed " << seed;
                ASSERT_EQ(*slot, it->second);
                break;
              }
              case 2:
                ASSERT_EQ(real.erase(key), ref.erase(key) != 0)
                    << "op " << op << " seed " << seed;
                break;
              case 3: {
                const std::uint64_t* v = real.find(key);
                auto it = ref.find(key);
                ASSERT_EQ(v != nullptr, it != ref.end());
                if (v) {
                    ASSERT_EQ(*v, it->second);
                }
                break;
              }
            }
            ASSERT_EQ(real.size(), ref.size());
        }

        // Final contents, via iteration (order-insensitive).
        std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
        real.forEach([&](std::uint64_t k, std::uint64_t& v) {
            got.emplace_back(k, v);
        });
        std::sort(got.begin(), got.end());
        std::vector<std::pair<std::uint64_t, std::uint64_t>> want(
            ref.begin(), ref.end());
        std::sort(want.begin(), want.end());
        EXPECT_EQ(got, want);
    }
}

} // namespace
} // namespace dtsim
