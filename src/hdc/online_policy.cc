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
    // Pool slots are 32-bit, and kNullSlot is the LRU and watch list
    // sentinel.
    if (spec_.candidateBlocks > kNullSlot)
        fatal("OnlineHdcPolicy: candidate pool must be < 2^32 blocks");
    // Each candidate record caches its counter in every row.
    if (rows_ > kMaxSketchRows)
        fatal("OnlineHdcPolicy: sketch must have at most %u rows",
              kMaxSketchRows);
    // The cached counter indices are 32-bit.
    if (cols_ > kMaxSketchCells / rows_)
        fatal("OnlineHdcPolicy: sketch must have at most 2^28 "
              "counters");
    // Candidate::disk is a 24-bit field.
    if (array.striping().disks() > (1u << 24))
        fatal("OnlineHdcPolicy: at most 2^24 disks");
    sketch_.assign(static_cast<std::size_t>(rows_) * cols_, Cell{});
    // Reserve a pool up to the default bound whole, so filling it
    // neither copies records nor rehashes the index; a larger bound
    // grows on demand.
    const std::size_t reserve = static_cast<std::size_t>(
        std::min(spec_.candidateBlocks, HdcSpec{}.candidateBlocks));
    cands_.reserve(reserve);
    candSlot_.reserve(reserve);
}

std::uint32_t
OnlineHdcPolicy::estimate(std::uint32_t s) const
{
    const std::uint32_t* cell = cands_[s].cells;
    std::uint32_t est = UINT32_MAX;
    for (unsigned r = 0; r < rows_; ++r)
        est = std::min(est, sketch_[cell[r]].count);
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
    const std::uint32_t* cell = cands_[s].cells;
    for (unsigned r = 0; r < rows_; ++r) {
        Cell& c = sketch_[cell[r]];
        if (c.count == est) {
            ++c.count;
            // Pending a rebuild, every slot is re-scored anyway, and
            // the watch lists are empty.
            if (c.watchHead != kNullSlot)
                dirtyWatchers(c);
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
OnlineHdcPolicy::dirtyWatchers(Cell& cell)
{
    // Every watcher of the raised counter is about to be re-scored,
    // which re-links it, so the whole list goes now.
    std::uint32_t s = cell.watchHead;
    cell.watchHead = kNullSlot;
    while (s != kNullSlot) {
        Candidate& c = cands_[s];
        const std::uint32_t next = c.watchNext;
        c.watchPrev = c.watchNext = kNullSlot;
        c.watching = false;
        markDirty(s);
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
        // The list's head: its counter is the one heading at `s`.
        for (unsigned r = 0; r < rows_; ++r) {
            Cell& cell = sketch_[c.cells[r]];
            if (cell.watchHead == s) {
                cell.watchHead = c.watchNext;
                break;
            }
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
OnlineHdcPolicy::insertCandidate(ArrayBlock block,
                                 const std::uint32_t* cells)
{
    std::uint32_t s;
    if (cands_.size() < spec_.candidateBlocks) {
        s = static_cast<std::uint32_t>(cands_.size());
        cands_.emplace_back();
    } else {
        // Full: the evicted slot is reused, which keeps the used
        // slots a dense prefix. A pinned block that leaves the pool
        // leaves its top set too, and is unpinned at the next epoch
        // unless it comes back and ranks there again.
        s = lruTail_;
        lruUnlink(s);
        Candidate& old = cands_[s];
        if (old.inTop)
            leaveTop(s);
        if (old.incumbent)
            ++pinnedOutside_;
        unwatch(s);
        --rankings_[old.disk].poolSlots;
        candSlot_.erase(old.block);
    }
    Candidate& c = cands_[s];
    c.block = block;
    c.est = 0;
    c.incumbent = false;
    c.parked = false;
    c.disk = array_.striping().toPhysical(block).disk;
    // A pinned block that was evicted from the pool re-enters as an
    // incumbent.
    if (pinnedOutside_ > 0 && pinnedOn(c.disk, block)) {
        c.incumbent = true;
        --pinnedOutside_;
    }
    ++rankings_[c.disk].poolSlots;
    std::copy_n(cells, rows_, c.cells);
    candSlot_.insert(block, s);
    lruPushFront(s);
    return s;
}

void
OnlineHdcPolicy::sketchCells(ArrayBlock block, std::uint32_t* cells) const
{
    for (unsigned r = 0; r < rows_; ++r)
        cells[r] = static_cast<std::uint32_t>(
            r * cols_ + sketchColumn(r, block, cols_));
}

void
OnlineHdcPolicy::observeMiss(ArrayBlock block)
{
    std::uint32_t cells[kMaxSketchRows] = {};
    sketchCells(block, cells);
    observe(block, cells);
}

void
OnlineHdcPolicy::observe(ArrayBlock block, const std::uint32_t* cells)
{
    ++counters_.misses;
    // The pool and the sketch are independent, so touching first lets
    // the increment use the slot's cached counters.
    if (const std::uint32_t* found = candSlot_.find(block)) {
        const std::uint32_t s = *found;
        if (s != lruHead_) {
            lruUnlink(s);
            lruPushFront(s);
        }
        sketchAdd(s);
        return;
    }
    const std::uint32_t s = insertCandidate(block, cells);
    sketchAdd(s);
    // A new candidate is scored and filed at once, while its counters
    // are cached; a later raise of the counter it watches queues it
    // for re-scoring like any other. Pending a rebuild, the rebuild
    // scores it.
    if (!rebuildPending_) {
        score(s);
        placeOutside(s);
    }
}

void
OnlineHdcPolicy::onAccess(ArrayBlock start, std::uint64_t count)
{
    // Most of a record's blocks are new to the pool, each with its
    // own index slot and sketch counters at random addresses: start
    // loading a batch's worth of them before observing the batch in
    // order.
    for (std::uint64_t done = 0; done < count; done += kBatch) {
        const std::uint64_t n = std::min(kBatch, count - done);
        for (std::uint64_t i = 0; i < n; ++i) {
            candSlot_.prefetch(start + done + i);
            sketchCells(start + done + i, batchCells_[i]);
            for (unsigned r = 0; r < rows_; ++r)
                __builtin_prefetch(&sketch_[batchCells_[i][r]]);
        }
        for (std::uint64_t i = 0; i < n; ++i)
            observe(start + done + i, batchCells_[i]);
    }
}

void
OnlineHdcPolicy::ageSketch()
{
    // Halving can lower any estimate, which no watch list tracks:
    // the next epoch re-scores the whole pool, and until then no
    // candidate watches a counter.
    for (Cell& c : sketch_) {
        c.count >>= 1;
        c.watchHead = kNullSlot;
    }
    rebuildPending_ = true;
}

void
OnlineHdcPolicy::markIncumbent(ArrayBlock block, bool incumbent)
{
    if (std::uint32_t* s = candSlot_.find(block)) {
        cands_[*s].incumbent = incumbent;
        // The flag is part of the key.
        markDirty(*s);
    } else if (!incumbent) {
        // An unpinned block outside the pool.
        --pinnedOutside_;
    }
}

void
OnlineHdcPolicy::score(std::uint32_t s)
{
    Candidate& c = cands_[s];
    std::uint32_t est = UINT32_MAX;
    std::uint32_t watch = c.cells[0];
    for (unsigned r = 0; r < rows_; ++r) {
        const std::uint32_t v = sketch_[c.cells[r]].count;
        if (v < est) {
            est = v;
            watch = c.cells[r];
        }
    }
    c.est = est;
    c.scoredIncumbent = c.incumbent;
    // Counters only rise until the next aging, so the estimate holds
    // until the watched minimum counter rises.
    unwatch(s);
    Cell& cell = sketch_[watch];
    c.watching = true;
    c.watchNext = cell.watchHead;
    if (c.watchNext != kNullSlot)
        cands_[c.watchNext].watchPrev = s;
    cell.watchHead = s;
}

void
OnlineHdcPolicy::enterTop(std::uint32_t s)
{
    Candidate& c = cands_[s];
    DiskRanking& dr = rankings_[c.disk];
    c.inTop = true;
    ++dr.topCount;
    topPush(dr, ranked(s));
    if (!c.incumbent)
        enteredTop_.push_back(c.block);
}

void
OnlineHdcPolicy::leaveTop(std::uint32_t s)
{
    // Its top-set entry goes stale with the flag.
    Candidate& c = cands_[s];
    c.inTop = false;
    --rankings_[c.disk].topCount;
    if (c.incumbent)
        leftTop_.push_back(c.block);
}

void
OnlineHdcPolicy::topPush(DiskRanking& dr, Ranked r)
{
    dr.top.push_back(r);
    std::push_heap(dr.top.begin(), dr.top.end(), RanksBefore{});
    if (dr.top.size() <= 2 * dr.topCount + 16)
        return;
    // Compact: keep the live entries only.
    std::erase_if(dr.top,
                  [this](const Ranked& e) { return !liveInTop(e); });
    std::make_heap(dr.top.begin(), dr.top.end(), RanksBefore{});
}

void
OnlineHdcPolicy::park(DiskRanking& dr, const Ranked& r)
{
    if (dr.parked.empty() || RanksBefore{}(r, dr.ceiling))
        dr.ceiling = r;
    Candidate& c = cands_[r.slot];
    if (c.parked)
        return;  // Already listed.
    c.parked = true;
    dr.parked.push_back(r.slot);
    if (dr.parked.size() <= 2 * std::size_t{dr.poolSlots} + 16)
        return;
    // Compact: keep one entry per parked slot this disk owns. The
    // first pass clears the flag of each slot it keeps, so a later
    // duplicate of that slot is dropped; the second restores them.
    const unsigned disk = c.disk;
    std::erase_if(dr.parked, [this, disk](std::uint32_t p) {
        Candidate& pc = cands_[p];
        if (!pc.parked || pc.disk != disk)
            return true;
        pc.parked = false;
        return false;
    });
    for (const std::uint32_t p : dr.parked)
        cands_[p].parked = true;
}

void
OnlineHdcPolicy::unpark(DiskRanking& dr, unsigned disk)
{
    const std::size_t before = dr.heap.size();
    for (const std::uint32_t s : dr.parked) {
        Candidate& c = cands_[s];
        if (c.parked && c.disk == disk) {
            c.parked = false;
            dr.heap.push_back(ranked(s));
        }
    }
    dr.parked.clear();
    // A few newcomers sift up one by one; many make a fresh heap.
    if (dr.heap.size() - before > before / 8) {
        std::make_heap(dr.heap.begin(), dr.heap.end(), RanksAfter{});
    } else {
        for (std::size_t i = before; i < dr.heap.size(); ++i)
            std::push_heap(dr.heap.begin(), dr.heap.begin() + i + 1,
                           RanksAfter{});
    }
}

void
OnlineHdcPolicy::heapPush(DiskRanking& dr, Ranked r)
{
    dr.heap.push_back(r);
    std::push_heap(dr.heap.begin(), dr.heap.end(), RanksAfter{});
    if (dr.heap.size() <= 2 * std::size_t{dr.poolSlots})
        return;
    // Compact: keep the live entries only.
    std::erase_if(dr.heap,
                  [this](const Ranked& e) { return !liveOutside(e); });
    std::make_heap(dr.heap.begin(), dr.heap.end(), RanksAfter{});
}

const OnlineHdcPolicy::Ranked*
OnlineHdcPolicy::heapBest(DiskRanking& dr)
{
    while (!dr.heap.empty()) {
        if (liveOutside(dr.heap.front()))
            return &dr.heap.front();
        std::pop_heap(dr.heap.begin(), dr.heap.end(), RanksAfter{});
        dr.heap.pop_back();
    }
    return nullptr;
}

const OnlineHdcPolicy::Ranked*
OnlineHdcPolicy::topWorst(DiskRanking& dr)
{
    while (!dr.top.empty()) {
        if (liveInTop(dr.top.front()))
            return &dr.top.front();
        std::pop_heap(dr.top.begin(), dr.top.end(), RanksBefore{});
        dr.top.pop_back();
    }
    return nullptr;
}

void
OnlineHdcPolicy::placeOutside(std::uint32_t s)
{
    Candidate& c = cands_[s];
    DiskRanking& dr = rankings_[c.disk];
    const Ranked r = ranked(s);
    // Between agings top keys only rise, so an outsider at or below
    // the floor stays below every member until one leaves.
    const Ranked* floor = topWorst(dr);
    if (floor != nullptr && !RanksBefore{}(r, *floor)) {
        park(dr, r);
        return;
    }
    c.parked = false;
    heapPush(dr, r);
}

void
OnlineHdcPolicy::rebalance(DiskRanking& dr, unsigned disk)
{
    // Fill to capacity from the best candidates outside. No parked
    // candidate beats the ceiling, so while the heap's best does, the
    // parked ones can stay where they are.
    while (dr.topCount < capacityBlocks_) {
        const Ranked* best = heapBest(dr);
        if (!dr.parked.empty() &&
            (best == nullptr || !RanksBefore{}(*best, dr.ceiling))) {
            unpark(dr, disk);
            continue;
        }
        if (best == nullptr)
            return;
        const std::uint32_t s = best->slot;
        std::pop_heap(dr.heap.begin(), dr.heap.end(), RanksAfter{});
        dr.heap.pop_back();
        enterTop(s);
    }
    // Swap while the best outside candidate beats the worst inside.
    // A candidate swapped out ranks below everything left inside, and
    // below the one swapped in, so it is parked under the new floor.
    for (;;) {
        const Ranked* best = heapBest(dr);
        if (best == nullptr)
            return;
        const Ranked* worst = topWorst(dr);
        if (worst == nullptr || !RanksBefore{}(*best, *worst))
            return;
        const std::uint32_t in = best->slot;
        const Ranked out = *worst;
        std::pop_heap(dr.heap.begin(), dr.heap.end(), RanksAfter{});
        dr.heap.pop_back();
        std::pop_heap(dr.top.begin(), dr.top.end(), RanksBefore{});
        dr.top.pop_back();
        leaveTop(out.slot);
        park(dr, out);
        enterTop(in);
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
    if (c.inTop) {
        // Re-key: the old entry goes stale. Estimates only rise
        // between agings, so the slot stays ranked, and
        // rebalance() restores the top-k.
        topPush(rankings_[c.disk], ranked(s));
    } else if (key != 0) {
        placeOutside(s);
    }
}

void
OnlineHdcPolicy::rebuild()
{
    ++fullRebuilds_;
    rebuildPending_ = false;
    const std::uint32_t pool = static_cast<std::uint32_t>(cands_.size());
    for (std::uint32_t s = 0; s < pool; ++s) {
        Candidate& c = cands_[s];
        if (c.inTop)
            leaveTop(s);
        // ageSketch() emptied the watch lists.
        c.watchPrev = c.watchNext = kNullSlot;
        c.watching = false;
        c.dirty = false;
        c.parked = false;
    }
    dirty_.clear();
    for (DiskRanking& dr : rankings_) {
        dr.top.clear();
        dr.heap.clear();
        dr.parked.clear();
    }
    // Gather each disk's ranked candidates on its heap vector, then
    // select the top set: the order is strict, so the set is unique.
    for (std::uint32_t s = 0; s < pool; ++s) {
        score(s);
        const Candidate& c = cands_[s];
        if (c.est != 0)
            rankings_[c.disk].heap.push_back(ranked(s));
    }
    for (DiskRanking& dr : rankings_) {
        std::vector<Ranked>& all = dr.heap;
        const std::size_t k = static_cast<std::size_t>(
            std::min<std::uint64_t>(capacityBlocks_, all.size()));
        if (k < all.size())
            std::nth_element(all.begin(), all.begin() + k, all.end(),
                             RanksBefore{});
        for (std::size_t i = 0; i < k; ++i)
            enterTop(all[i].slot);
        // The rest rank below every member of a full set.
        for (std::size_t i = k; i < all.size(); ++i)
            park(dr, all[i]);
        all.clear();
    }
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
    for (unsigned d = 0; d < rankings_.size(); ++d) {
        rebalance(rankings_[d], d);
        desiredTotal += rankings_[d].topCount;
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
