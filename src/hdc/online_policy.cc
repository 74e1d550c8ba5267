#include "hdc/online_policy.hh"

#include "sim/logging.hh"

namespace dtsim {

namespace {

/** splitmix64: the finalizer makes a fine per-row hash family. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Row `r`'s sketch column for `block` (cols <= 2^32, checked). */
std::uint32_t
sketchColumn(unsigned r, ArrayBlock block, std::uint64_t cols)
{
    // Salt the block with the row index so the rows hash
    // independently.
    const std::uint64_t h =
        mix64(block + 0x9e3779b97f4a7c15ull * (r + 1));
    return static_cast<std::uint32_t>(h % cols);
}

} // namespace

OnlineHdcPolicy::OnlineHdcPolicy(DiskArray& array, const HdcSpec& spec)
    : array_(array), spec_(spec),
      capacityBlocks_(array.controller(0).hdcCapacityBlocks()),
      rows_(spec.sketchRows), cols_(spec.sketchCols),
      pinnedPerDisk_(array.striping().disks()),
      ranked_(array.striping().disks())
{
    if (rows_ == 0 || cols_ == 0)
        fatal("OnlineHdcPolicy: sketch must have rows and columns");
    if (spec_.candidateBlocks == 0)
        fatal("OnlineHdcPolicy: candidate pool must be > 0 blocks");
    // Pool slots and cached sketch columns are 32-bit, and kNullSlot
    // is the LRU list sentinel.
    if (spec_.candidateBlocks > kNullSlot)
        fatal("OnlineHdcPolicy: candidate pool must be < 2^32 blocks");
    if (cols_ > std::uint64_t{kNullSlot} + 1)
        fatal("OnlineHdcPolicy: sketch must have at most 2^32 columns");
    sketch_.assign(static_cast<std::size_t>(rows_) * cols_, 0);
}

std::uint32_t
OnlineHdcPolicy::estimate(std::uint32_t s) const
{
    const std::uint32_t* col =
        &candCols_[static_cast<std::size_t>(s) * rows_];
    std::uint32_t est = UINT32_MAX;
    std::size_t row = 0;
    for (unsigned r = 0; r < rows_; ++r, row += cols_)
        est = std::min(est, sketch_[row + col[r]]);
    return est;
}

void
OnlineHdcPolicy::sketchAdd(std::uint32_t s)
{
    // Conservative update: only raise the minimum counters, which
    // tightens the overestimate without losing the sketch's
    // no-underestimate guarantee.
    const std::uint32_t est = estimate(s);
    if (est == UINT32_MAX)
        return;  // Saturated; stop counting.
    const std::uint32_t* col =
        &candCols_[static_cast<std::size_t>(s) * rows_];
    std::size_t row = 0;
    for (unsigned r = 0; r < rows_; ++r, row += cols_) {
        std::uint32_t& c = sketch_[row + col[r]];
        if (c == est)
            ++c;
    }
}

void
OnlineHdcPolicy::lruUnlink(std::uint32_t s)
{
    const Candidate& c = cands_[s];
    if (c.prev != kNullSlot)
        cands_[c.prev].next = c.next;
    else
        lruHead_ = c.next;
    if (c.next != kNullSlot)
        cands_[c.next].prev = c.prev;
    else
        lruTail_ = c.prev;
}

void
OnlineHdcPolicy::lruPushFront(std::uint32_t s)
{
    Candidate& c = cands_[s];
    c.prev = kNullSlot;
    c.next = lruHead_;
    if (lruHead_ != kNullSlot)
        cands_[lruHead_].prev = s;
    else
        lruTail_ = s;
    lruHead_ = s;
}

std::uint32_t
OnlineHdcPolicy::touchCandidate(ArrayBlock block)
{
    if (const std::uint32_t* found = candSlot_.find(block)) {
        const std::uint32_t s = *found;
        if (s != lruHead_) {
            lruUnlink(s);
            lruPushFront(s);
        }
        return s;
    }
    std::uint32_t s;
    if (cands_.size() < spec_.candidateBlocks) {
        s = static_cast<std::uint32_t>(cands_.size());
        cands_.emplace_back();
        candCols_.resize(candCols_.size() + rows_);
    } else {
        // Full: the evicted slot is reused, which keeps the used
        // slots a dense prefix.
        s = lruTail_;
        lruUnlink(s);
        candSlot_.erase(cands_[s].block);
    }
    Candidate& c = cands_[s];
    c.block = block;
    c.disk = array_.striping().toPhysical(block).disk;
    // A pinned block that was evicted from the pool re-enters as an
    // incumbent.
    c.incumbent = pinnedOn(c.disk, block);
    std::uint32_t* col = &candCols_[static_cast<std::size_t>(s) * rows_];
    for (unsigned r = 0; r < rows_; ++r)
        col[r] = sketchColumn(r, block, cols_);
    candSlot_.insert(block, s);
    lruPushFront(s);
    return s;
}

void
OnlineHdcPolicy::observeMiss(ArrayBlock block)
{
    ++counters_.misses;
    // The pool and the sketch are independent, so touching first lets
    // the increment use the slot's cached columns.
    sketchAdd(touchCandidate(block));
}

void
OnlineHdcPolicy::onAccess(ArrayBlock start, std::uint64_t count)
{
    for (std::uint64_t i = 0; i < count; ++i)
        observeMiss(start + i);
}

void
OnlineHdcPolicy::ageSketch()
{
    for (std::uint32_t& c : sketch_)
        c >>= 1;
}

void
OnlineHdcPolicy::markIncumbent(ArrayBlock block, bool incumbent)
{
    if (std::uint32_t* s = candSlot_.find(block))
        cands_[*s].incumbent = incumbent;
}

void
OnlineHdcPolicy::replan()
{
    ++counters_.replans;
    if (capacityBlocks_ == 0)
        return;  // No HDC budget: nothing ever pins.

    // Rank the candidate pool per owning disk: estimate descending,
    // block ascending on ties -- the same order the oracle planner
    // uses, so a converged sketch reproduces the oracle's pin set.
    //
    // Estimate descending with incumbent hysteresis: a pinned block
    // scores est + 2, so a challenger must clear a margin above it,
    // and an incumbent wins an exact score tie. The host cache
    // flattens the miss stream (every hot block recurs about once per
    // cache cycle), which puts most of the region in one large
    // estimate tie class; without the margin, aging transients (+-1)
    // would rotate equal-value blocks through the region every epoch
    // and fragment request coverage.
    for (std::vector<Ranked>& r : ranked_)
        r.clear();
    const std::uint32_t pool = static_cast<std::uint32_t>(cands_.size());
    for (std::uint32_t s = 0; s < pool; ++s) {
        const std::uint64_t est = estimate(s);
        if (est == 0)
            continue;
        const Candidate& c = cands_[s];
        const std::uint64_t inc = c.incumbent ? 1 : 0;
        ranked_[c.disk].push_back(
            Ranked{((est + 2 * inc) << 1) | inc, c.block});
    }

    bool hadPins = false;
    std::uint64_t desiredTotal = 0;
    std::uint64_t overlap = 0;
    toUnpin_.clear();
    toPin_.clear();

    for (std::size_t d = 0; d < ranked_.size(); ++d) {
        std::vector<Ranked>& r = ranked_[d];
        std::vector<ArrayBlock>& cur = pinnedPerDisk_[d];
        const std::size_t k = std::min<std::size_t>(
            r.size(), static_cast<std::size_t>(capacityBlocks_));
        // Blocks are unique in the pool, so the ranking is a strict
        // total order and its top-k set is unique: neither the pool's
        // slot order nor the selection algorithm can change it.
        if (k < r.size())
            std::nth_element(r.begin(), r.begin() + k, r.end(),
                             [](const Ranked& a, const Ranked& b) {
                                 if (a.key != b.key)
                                     return a.key > b.key;
                                 return a.block < b.block;
                             });
        desiredTotal += k;

        desired_.clear();
        for (std::size_t i = 0; i < k; ++i)
            desired_.push_back(r[i].block);
        std::sort(desired_.begin(), desired_.end());

        hadPins = hadPins || !cur.empty();
        std::size_t i = 0;
        std::size_t j = 0;
        while (i < cur.size() && j < desired_.size()) {
            if (cur[i] < desired_[j]) {
                toUnpin_.push_back(cur[i++]);
            } else if (desired_[j] < cur[i]) {
                toPin_.push_back(desired_[j++]);
            } else {
                ++overlap;
                ++i;
                ++j;
            }
        }
        toUnpin_.insert(toUnpin_.end(), cur.begin() + i, cur.end());
        toPin_.insert(toPin_.end(), desired_.begin() + j,
                      desired_.end());
        cur.swap(desired_);
    }

    // Canonical command order: sorted unpins, then sorted pins.
    // Commands to one disk apply in issue order (same latency), so
    // each disk's unpins land before its pins and controller
    // occupancy never exceeds the region capacity.
    std::sort(toUnpin_.begin(), toUnpin_.end());
    std::sort(toPin_.begin(), toPin_.end());
    for (const ArrayBlock b : toUnpin_) {
        array_.unpinLogicalBlock(b);
        markIncumbent(b, false);
        ++counters_.unpins;
        --pinnedNow_;
    }
    for (const ArrayBlock b : toPin_) {
        array_.pinLogicalBlock(b);
        markIncumbent(b, true);
        ++counters_.pins;
        ++pinnedNow_;
    }

    // Phase change: the new hot set barely overlaps the old one.
    // Meaningless before anything was pinned (the first plans), so
    // gate on hadPins.
    const double churn =
        desiredTotal == 0
            ? 0.0
            : 1.0 - static_cast<double>(overlap) /
                        static_cast<double>(desiredTotal);
    fastMode_ = hadPins && desiredTotal > 0 &&
                churn > spec_.churnThreshold;
    if (fastMode_)
        ++counters_.fastReplans;

    // Age on observation volume, not on the epoch clock: the blocks
    // worth pinning recur on day-cycle scale (host-cache drops), so
    // halving every epoch would flatten their counts to the noise
    // floor before they ever accumulate. Halving once per ~32
    // region-fills of misses keeps the half-life proportional to the
    // workload's own rate at any replan interval, and long enough
    // that a block recurring a few times per half-life stays clear
    // of the sketch's collision noise.
    const std::uint64_t age_volume =
        32 * capacityBlocks_ * array_.striping().disks();
    if (counters_.misses - lastAgeMisses_ >= age_volume) {
        ageSketch();
        lastAgeMisses_ = counters_.misses;
    }
}

Tick
OnlineHdcPolicy::nextIntervalTicks() const
{
    const Tick base = spec_.replanIntervalTicks;
    if (!fastMode_)
        return base;
    return std::max<Tick>(1, base / 4);
}

} // namespace dtsim
