/**
 * @file
 * Differential tests proving the slab/flat-table container
 * replacements behave identically to the node-based implementations
 * they replaced.
 *
 * Each test keeps a reference implementation built from std::list,
 * std::unordered_map, or std::multimap — the containers the model used
 * before the hot-path optimization — and drives it and the production
 * container with the same randomized, seeded operation stream,
 * asserting every observable output matches: return values, eviction
 * and writeback sequences, pop order, counters, and final contents.
 * The streams are seeded with dtsim::Rng so a failure replays exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/block_cache.hh"
#include "cache/hdc_store.hh"
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
