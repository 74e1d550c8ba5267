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
      rankings_(array.striping().disks()),
      pinnedPerDisk_(array.striping().disks())
{
    if (rows_ == 0 || cols_ == 0)
        fatal("OnlineHdcPolicy: sketch must have rows and columns");
    if (spec_.candidateBlocks == 0)
        fatal("OnlineHdcPolicy: candidate pool must be > 0 blocks");
    // Pool slots and cached sketch columns are 32-bit, and kNullSlot
    // is the LRU and watch list sentinel.
    if (spec_.candidateBlocks > kNullSlot)
        fatal("OnlineHdcPolicy: candidate pool must be < 2^32 blocks");
    if (cols_ > kMaxSketchCells / rows_)
        fatal("OnlineHdcPolicy: sketch must have at most 2^28 "
              "counters");
    // Candidate::disk is a 24-bit field.
    if (array.striping().disks() > (1u << 24))
        fatal("OnlineHdcPolicy: at most 2^24 disks");
    sketch_.assign(static_cast<std::size_t>(rows_) * cols_, 0);
    watchHead_.assign(static_cast<std::size_t>(cols_), kNullSlot);
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
        if (c == est) {
            ++c;
            // Pending a rebuild, every slot is re-scored anyway.
            if (!rebuildPending_)
                dirtyWatchers(r, col[r]);
        }
    }
}

void
OnlineHdcPolicy::markDirty(std::uint32_t s)
{
    Candidate& c = cands_[s];
    if (!c.dirty) {
        c.dirty = true;
        dirty_.push_back(s);
    }
}

void
OnlineHdcPolicy::dirtyWatchers(unsigned row, std::uint32_t col)
{
    // The list holds the column's watchers in every row; only those
    // whose own row-`row` column is `col` can watch the raised
    // counter. Each of them is about to be re-scored, which re-links
    // it, so it leaves the list now.
    std::uint32_t s = watchHead_[col];
    while (s != kNullSlot) {
        Candidate& c = cands_[s];
        const std::uint32_t next = c.watchNext;
        if (candCols_[static_cast<std::size_t>(s) * rows_ + row] == col) {
            if (c.watchPrev != kNullSlot)
                cands_[c.watchPrev].watchNext = next;
            else
                watchHead_[col] = next;
            if (next != kNullSlot)
                cands_[next].watchPrev = c.watchPrev;
            c.watchPrev = c.watchNext = kNullSlot;
            c.watching = false;
            markDirty(s);
        }
        s = next;
    }
}

void
OnlineHdcPolicy::unwatch(std::uint32_t s)
{
    Candidate& c = cands_[s];
    if (!c.watching)
        return;
    if (c.watchPrev != kNullSlot) {
        cands_[c.watchPrev].watchNext = c.watchNext;
    } else {
        // The list's head: its column is the one heading at `s`.
        const std::uint32_t* col =
            &candCols_[static_cast<std::size_t>(s) * rows_];
        for (unsigned r = 0; r < rows_; ++r)
            if (watchHead_[col[r]] == s) {
                watchHead_[col[r]] = c.watchNext;
                break;
            }
    }
    if (c.watchNext != kNullSlot)
        cands_[c.watchNext].watchPrev = c.watchPrev;
    c.watchPrev = c.watchNext = kNullSlot;
    c.watching = false;
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
        // slots a dense prefix. A pinned block that leaves the pool
        // leaves its top set too, and is unpinned at the next epoch
        // unless it comes back and ranks there again.
        s = lruTail_;
        lruUnlink(s);
        if (cands_[s].inTop)
            leaveTop(s);
        unwatch(s);
        --rankings_[cands_[s].disk].poolSlots;
        candSlot_.erase(cands_[s].block);
    }
    Candidate& c = cands_[s];
    c.block = block;
    c.est = 0;
    c.disk = array_.striping().toPhysical(block).disk;
    // A pinned block that was evicted from the pool re-enters as an
    // incumbent.
    c.incumbent = pinnedOn(c.disk, block);
    ++rankings_[c.disk].poolSlots;
    std::uint32_t* col = &candCols_[static_cast<std::size_t>(s) * rows_];
    for (unsigned r = 0; r < rows_; ++r)
        col[r] = sketchColumn(r, block, cols_);
    candSlot_.insert(block, s);
    lruPushFront(s);
    if (!rebuildPending_)
        markDirty(s);
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
    // Halving can lower any estimate, which no watch list tracks.
    rebuildPending_ = true;
}

void
OnlineHdcPolicy::markIncumbent(ArrayBlock block, bool incumbent)
{
    if (std::uint32_t* s = candSlot_.find(block)) {
        cands_[*s].incumbent = incumbent;
        // The flag is part of the key.
        markDirty(*s);
    }
}

void
OnlineHdcPolicy::score(std::uint32_t s)
{
    Candidate& c = cands_[s];
    const std::uint32_t* col =
        &candCols_[static_cast<std::size_t>(s) * rows_];
    std::uint32_t est = UINT32_MAX;
    std::uint32_t watch = col[0];
    std::size_t row = 0;
    for (unsigned r = 0; r < rows_; ++r, row += cols_) {
        const std::uint32_t v = sketch_[row + col[r]];
        if (v < est) {
            est = v;
            watch = col[r];
        }
    }
    c.est = est;
    c.scoredIncumbent = c.incumbent;
    // Counters only rise until the next aging, so the estimate holds
    // until the watched minimum counter rises.
    unwatch(s);
    c.watching = true;
    c.watchNext = watchHead_[watch];
    if (c.watchNext != kNullSlot)
        cands_[c.watchNext].watchPrev = s;
    watchHead_[watch] = s;
}

void
OnlineHdcPolicy::enterTop(std::uint32_t s)
{
    Candidate& c = cands_[s];
    rankings_[c.disk].top.insert(Ranked{c.key(), c.block});
    c.inTop = true;
    if (!c.incumbent)
        enteredTop_.push_back(c.block);
}

void
OnlineHdcPolicy::leaveTop(std::uint32_t s)
{
    Candidate& c = cands_[s];
    rankings_[c.disk].top.erase(Ranked{c.key(), c.block});
    c.inTop = false;
    if (c.incumbent)
        leftTop_.push_back(c.block);
}

void
OnlineHdcPolicy::heapPush(DiskRanking& dr, Ranked r)
{
    dr.heap.push_back(r);
    std::push_heap(dr.heap.begin(), dr.heap.end(), RanksAfter{});
    if (dr.heap.size() <= 2 * std::size_t{dr.poolSlots})
        return;
    // Compact: keep the live entries only. A live entry's slot holds
    // the same block, outside the top set, with the same key.
    std::erase_if(dr.heap, [this](const Ranked& e) {
        const std::uint32_t* s = candSlot_.find(e.block);
        return s == nullptr || cands_[*s].inTop ||
               cands_[*s].key() != e.key;
    });
    std::make_heap(dr.heap.begin(), dr.heap.end(), RanksAfter{});
}

void
OnlineHdcPolicy::heapPop(DiskRanking& dr)
{
    std::pop_heap(dr.heap.begin(), dr.heap.end(), RanksAfter{});
    dr.heap.pop_back();
}

std::uint32_t
OnlineHdcPolicy::heapBest(DiskRanking& dr)
{
    while (!dr.heap.empty()) {
        const Ranked& e = dr.heap.front();
        if (const std::uint32_t* s = candSlot_.find(e.block)) {
            const Candidate& c = cands_[*s];
            if (!c.inTop && c.key() == e.key)
                return *s;
        }
        heapPop(dr);
    }
    return kNullSlot;
}

void
OnlineHdcPolicy::rebalance(DiskRanking& dr)
{
    // Fill to capacity from the best candidates outside.
    while (dr.top.size() < capacityBlocks_) {
        const std::uint32_t best = heapBest(dr);
        if (best == kNullSlot)
            return;
        heapPop(dr);
        enterTop(best);
    }
    // Swap while the best outside candidate beats the worst inside.
    // A candidate swapped out ranks below everything left inside, so
    // it never comes straight back.
    while (!dr.top.empty()) {
        const std::uint32_t best = heapBest(dr);
        if (best == kNullSlot)
            return;
        const Ranked worst = *std::prev(dr.top.end());
        const Candidate& in = cands_[best];
        if (!RanksBefore{}(Ranked{in.key(), in.block}, worst))
            return;
        heapPop(dr);
        const std::uint32_t out = *candSlot_.find(worst.block);
        leaveTop(out);
        heapPush(dr, worst);
        enterTop(best);
    }
}

void
OnlineHdcPolicy::rescore(std::uint32_t s)
{
    Candidate& c = cands_[s];
    const std::uint64_t old = c.key();
    score(s);
    const std::uint64_t key = c.key();
    if (key == old)
        return;
    DiskRanking& dr = rankings_[c.disk];
    if (c.inTop) {
        // Re-key in place; rebalance() restores the top-k. Estimates
        // only rise between agings, so the slot stays ranked.
        auto node = dr.top.extract(Ranked{old, c.block});
        node.value().key = key;
        dr.top.insert(std::move(node));
    } else if (key != 0) {
        heapPush(dr, Ranked{key, c.block});
    }
}

void
OnlineHdcPolicy::rebuild()
{
    ++fullRebuilds_;
    rebuildPending_ = false;
    for (DiskRanking& dr : rankings_) {
        while (!dr.top.empty())
            leaveTop(*candSlot_.find(dr.top.begin()->block));
        dr.heap.clear();
    }
    std::fill(watchHead_.begin(), watchHead_.end(), kNullSlot);
    for (Candidate& c : cands_) {
        c.watchPrev = c.watchNext = kNullSlot;
        c.watching = false;
        c.dirty = false;
    }
    dirty_.clear();
    const std::uint32_t pool = static_cast<std::uint32_t>(cands_.size());
    for (std::uint32_t s = 0; s < pool; ++s) {
        score(s);
        const Candidate& c = cands_[s];
        if (c.est != 0)
            rankings_[c.disk].heap.push_back(Ranked{c.key(), c.block});
    }
    for (DiskRanking& dr : rankings_)
        std::make_heap(dr.heap.begin(), dr.heap.end(), RanksAfter{});
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
    //
    // Blocks are unique in the pool, so the ranking is a strict total
    // order and each disk's top-k set is unique: the incremental
    // top set/heap split reaches the same set a full sort would.
    if (rebuildPending_) {
        rebuild();
    } else {
        for (const std::uint32_t s : dirty_) {
            cands_[s].dirty = false;
            rescore(s);
        }
        dirty_.clear();
    }
    std::uint64_t desiredTotal = 0;
    for (DiskRanking& dr : rankings_) {
        rebalance(dr);
        desiredTotal += dr.top.size();
    }

    // Settle this epoch's top-set moves against the pin sets: a block
    // may have left and come back, or entered and left again.
    toUnpin_.clear();
    toPin_.clear();
    std::sort(leftTop_.begin(), leftTop_.end());
    leftTop_.erase(std::unique(leftTop_.begin(), leftTop_.end()),
                   leftTop_.end());
    for (const ArrayBlock b : leftTop_) {
        const std::uint32_t* s = candSlot_.find(b);
        if (s == nullptr || !cands_[*s].inTop)
            toUnpin_.push_back(b);
    }
    std::sort(enteredTop_.begin(), enteredTop_.end());
    enteredTop_.erase(
        std::unique(enteredTop_.begin(), enteredTop_.end()),
        enteredTop_.end());
    for (const ArrayBlock b : enteredTop_) {
        const Candidate& c = cands_[*candSlot_.find(b)];
        if (c.inTop && !c.incumbent)
            toPin_.push_back(b);
    }
    leftTop_.clear();
    enteredTop_.clear();

    const bool hadPins = pinnedNow_ > 0;
    const std::uint64_t overlap = pinnedNow_ - toUnpin_.size();

    // Canonical command order: sorted unpins, then sorted pins.
    // Commands to one disk apply in issue order (same latency), so
    // each disk's unpins land before its pins and controller
    // occupancy never exceeds the region capacity.
    for (const ArrayBlock b : toUnpin_) {
        array_.unpinLogicalBlock(b);
        std::vector<ArrayBlock>& cur =
            pinnedPerDisk_[array_.striping().toPhysical(b).disk];
        cur.erase(std::lower_bound(cur.begin(), cur.end(), b));
        markIncumbent(b, false);
        ++counters_.unpins;
        --pinnedNow_;
    }
    for (const ArrayBlock b : toPin_) {
        array_.pinLogicalBlock(b);
        std::vector<ArrayBlock>& cur =
            pinnedPerDisk_[cands_[*candSlot_.find(b)].disk];
        cur.insert(std::lower_bound(cur.begin(), cur.end(), b), b);
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
