/**
 * @file
 * The online HDC host policy: drop the oracle.
 *
 * The paper's +24% HDC gain is computed offline — per-disk top-k miss
 * blocks derived from perfect trace knowledge and pinned once at t=0
 * (hdc_planner.hh). This policy earns the region at runtime instead:
 *
 *  - Observe: every host buffer-cache miss (the replayed trace is
 *    exactly that stream, fed record by record through onAccess)
 *    bumps the block in a count-min sketch with conservative
 *    update, and refreshes the block in a bounded LRU candidate
 *    pool that caps the policy's memory. onAccess starts loading a
 *    record's sketch counters and pool index slots before it
 *    observes the record's blocks in order.
 *  - Re-plan: every replan interval a host-side front event ranks
 *    the candidates per logical disk by sketch estimate (incumbents
 *    score a small hysteresis margin so equal-value challengers
 *    cannot rotate the region; then lower block, the oracle
 *    planner's order), keeps the top hdcCapacityBlocks() of each
 *    disk, and ships the difference against the current pin set as
 *    unpin-then-pin commands through DiskArray's unified pin router.
 *    Commands to one disk apply in issue order, so the unpins land
 *    first and controller occupancy never overshoots.
 *  - Incremental ranking: each disk keeps its top-k in a lazy
 *    min-heap (worst member, the floor, first) and an epoch re-keys
 *    only the candidates whose score can have changed. Each candidate
 *    watches the sketch counter of the first row that held its
 *    minimum when it was last scored; counters only rise between
 *    agings, so its estimate cannot move unless that counter does,
 *    and a sketch increment marks the counter's watchers dirty (the
 *    list head sits beside the counter, so a raise with no watchers
 *    costs nothing more). A flipped incumbent flag also marks a
 *    candidate dirty; a new one is scored as it is inserted. Only the
 *    epoch after a sketch aging re-scores the whole pool.
 *  - Floor filter: top keys only rise between agings, so a candidate
 *    outside the top set that does not beat its floor is parked on an
 *    unsorted list instead of a lazy max-heap. Parked candidates are
 *    heaped only when the set has room (a pool eviction took a
 *    member) and the heap's best no longer beats every parked one.
 *  - Phase change: the epoch's churn (1 - overlap between the new
 *    and previous hot sets) above hdc.churn_threshold schedules the
 *    next re-plan at a quarter of the base period, so the region
 *    turns over quickly after a working-set shift.
 *  - Age: every sketch counter halves once per ~32 region-fills of
 *    observed misses — volume-based exponential decay that tracks
 *    workload shifts without flattening the slow (day-cycle scale)
 *    recurrences that make a block worth pinning.
 *
 * All state is host-side and fed in replay completion order, so
 * runs are deterministic.
 */

#ifndef DTSIM_HDC_ONLINE_POLICY_HH
#define DTSIM_HDC_ONLINE_POLICY_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "array/disk_array.hh"
#include "hdc/hdc_spec.hh"
#include "sim/flat_table.hh"
#include "sim/slab_list.hh"

namespace dtsim {

/** Counters exported by the online policy (sim.hdc.online.*). */
struct OnlineHdcCounters
{
    std::uint64_t misses = 0;       ///< Miss observations folded in.
    std::uint64_t replans = 0;      ///< Re-plan epochs run.
    std::uint64_t fastReplans = 0;  ///< Epochs flagged phase changes.
    std::uint64_t pins = 0;         ///< pin_blk commands issued.
    std::uint64_t unpins = 0;       ///< unpin_blk commands issued.
};

/** Host-side driver of the online HDC policy. */
class OnlineHdcPolicy
{
  public:
    /**
     * @param array Target array (its controllers need an HDC budget).
     * @param spec The hdc.* knobs (policy must be Online).
     */
    OnlineHdcPolicy(DiskArray& array, const HdcSpec& spec);

    /**
     * Observe a completed host access (call once per trace record;
     * replayed records are buffer-cache misses by construction).
     */
    void onAccess(ArrayBlock start, std::uint64_t count);

    /** Observe a single-block miss. */
    void observeMiss(ArrayBlock block);

    /**
     * Run one re-plan epoch: rank candidates, diff against the
     * current pin set, issue unpin/pin deltas, detect phase changes,
     * age the sketch. Call from host context (a front event).
     */
    void replan();

    /**
     * Delay until the next re-plan: the base interval, or a quarter
     * of it right after a phase-change epoch.
     */
    Tick nextIntervalTicks() const;

    const OnlineHdcCounters& counters() const { return counters_; }

    /** Blocks the policy currently holds pinned (all disks). */
    std::uint64_t pinnedNow() const { return pinnedNow_; }

    /** True if `block` is in the current pin set (for tests). */
    bool
    isPinned(ArrayBlock block) const
    {
        return pinnedOn(array_.striping().toPhysical(block).disk, block);
    }

    /**
     * Epochs that re-scored the whole candidate pool: the first, and
     * the first after each sketch aging. Every other epoch re-scores
     * only its dirty candidates (for tests).
     */
    std::uint64_t fullRebuilds() const { return fullRebuilds_; }

  private:
    /**
     * One candidate-pool entry, one cache line. Everything a re-plan
     * or an observation needs per block that only depends on the
     * block is computed once, on insert.
     */
    struct alignas(64) Candidate
    {
        ArrayBlock block = 0;
        /** Sketch estimate at the last scoring (0 = unranked). */
        std::uint32_t est = 0;
        std::uint32_t prev = kNullSlot;  ///< LRU link toward the front.
        std::uint32_t next = kNullSlot;  ///< LRU link toward the back.
        std::uint32_t watchPrev = kNullSlot;  ///< Watch-list links.
        std::uint32_t watchNext = kNullSlot;
        std::uint32_t disk : 24 = 0;     ///< Owning logical disk.
        bool incumbent : 1 = false;      ///< In its disk's pin set.
        /** The incumbent flag the current key was scored with. */
        bool scoredIncumbent : 1 = false;
        bool inTop : 1 = false;          ///< In its disk's top set.
        bool dirty : 1 = false;          ///< Queued for re-scoring.
        bool watching : 1 = false;       ///< On a watch list.
        /** On its disk's parked list, below the top set's floor. */
        bool parked : 1 = false;
        /**
         * The block's sketch counter in each row, as an index into
         * sketch_ (row * cols + column); the first rows_ are used.
         */
        std::uint32_t cells[kMaxSketchRows] = {};

        /**
         * Ranking key as last scored:
         * (est + 2*incumbent) << 1 | incumbent, or 0 when unranked.
         */
        std::uint64_t
        key() const
        {
            if (est == 0)
                return 0;
            const std::uint64_t inc = scoredIncumbent ? 1 : 0;
            return ((std::uint64_t{est} + 2 * inc) << 1) | inc;
        }
    };

    /** One count-min counter and the head of its watch list. */
    struct Cell
    {
        std::uint32_t count = 0;
        /** First candidate whose estimate this counter holds. */
        std::uint32_t watchHead = kNullSlot;
    };

    /**
     * A ranked candidate. key = (est + 2*incumbent) << 1 | incumbent,
     * so key descending then block ascending is the ranking order.
     * The entry counts only while pool slot `slot` still holds
     * `block` with the same key (see liveOutside() and liveInTop()).
     */
    struct Ranked
    {
        std::uint64_t key;
        ArrayBlock block;
        std::uint32_t slot;
    };

    /** Strict ranking order: key descending, then block ascending. */
    struct RanksBefore
    {
        bool
        operator()(const Ranked& a, const Ranked& b) const
        {
            if (a.key != b.key)
                return a.key > b.key;
            return a.block < b.block;
        }
    };

    /** The outsider heaps' order: a max-heap under RanksBefore. */
    struct RanksAfter
    {
        bool
        operator()(const Ranked& a, const Ranked& b) const
        {
            return RanksBefore{}(b, a);
        }
    };

    /** One logical disk's ranking state. */
    struct DiskRanking
    {
        /**
         * Lazy min-heap of the top set (the at most capacity best
         * candidates), worst first: its front live entry is the
         * floor. A re-keyed member pushes a new entry and a member
         * that leaves just clears its inTop flag; stale entries are
         * dropped when they reach the front or when the heap is
         * compacted.
         */
        std::vector<Ranked> top;
        /** Live members of the top set. */
        std::uint64_t topCount = 0;
        /**
         * Lazy max-heap of the candidates outside the top set that are
         * not parked. Stale entries are dropped the same way.
         */
        std::vector<Ranked> heap;
        /**
         * Slots of the candidates outside the top set that ranked at
         * or below its floor when they were filed; an entry counts
         * while its slot is parked and owned by this disk. Top keys
         * only rise between agings, so these rank below every member
         * until one leaves.
         */
        std::vector<std::uint32_t> parked;
        /**
         * While parked is not empty: an entry that ranks at or before
         * every parked candidate.
         */
        Ranked ceiling{};
        /** Pool slots owned by this disk (the compaction bound). */
        std::uint32_t poolSlots = 0;
    };

    /** True if `block` is in `disk`'s sorted pin set. */
    bool
    pinnedOn(unsigned disk, ArrayBlock block) const
    {
        const std::vector<ArrayBlock>& s = pinnedPerDisk_[disk];
        return std::binary_search(s.begin(), s.end(), block);
    }

    /** A Ranked entry for slot `s` at its current key. */
    Ranked
    ranked(std::uint32_t s) const
    {
        const Candidate& c = cands_[s];
        return Ranked{c.key(), c.block, s};
    }

    /** `e` is a current entry of a candidate outside the top set. */
    bool
    liveOutside(const Ranked& e) const
    {
        const Candidate& c = cands_[e.slot];
        return c.block == e.block && !c.inTop && c.key() == e.key;
    }

    /** `e` is a current entry of a top-set member. */
    bool
    liveInTop(const Ranked& e) const
    {
        const Candidate& c = cands_[e.slot];
        return c.block == e.block && c.inTop && c.key() == e.key;
    }

    /** Count-min estimate of the block in candidate slot `s`. */
    std::uint32_t estimate(std::uint32_t s) const;

    /** Conservative-update increment of candidate slot `s`'s block. */
    void sketchAdd(std::uint32_t s);

    /** Write `block`'s sketch counter index in each row to `cells`. */
    void sketchCells(ArrayBlock block, std::uint32_t* cells) const;

    /** observeMiss() of `block`, whose counters are `cells`. */
    void observe(ArrayBlock block, const std::uint32_t* cells);

    /**
     * Insert `block`, absent from the bounded LRU candidate pool, at
     * its front, evicting the least recent entry when the pool is
     * full.
     * @param cells The block's sketch counters (sketchCells()).
     * @return The block's slot.
     */
    std::uint32_t insertCandidate(ArrayBlock block,
                                  const std::uint32_t* cells);

    /** Unlink slot `s` from the LRU list. */
    void lruUnlink(std::uint32_t s);

    /** Link slot `s` at the LRU front. */
    void lruPushFront(std::uint32_t s);

    /** Halve every sketch counter (exponential epoch decay). */
    void ageSketch();

    /** Queue slot `s` for re-scoring at the next epoch. */
    void markDirty(std::uint32_t s);

    /** Mark the watchers of sketch counter `cell` dirty. */
    void dirtyWatchers(Cell& cell);

    /** Take slot `s` off its watch list, if it is on one. */
    void unwatch(std::uint32_t s);

    /**
     * Score slot `s` from the sketch (its est and scoredIncumbent) and
     * make it watch the counter of the first row that holds its
     * minimum.
     */
    void score(std::uint32_t s);

    /** Re-score dirty slot `s` and move it within its disk's ranking. */
    void rescore(std::uint32_t s);

    /** Re-score the whole pool into fresh top sets (after aging). */
    void rebuild();

    /** Put slot `s` into its disk's top set. */
    void enterTop(std::uint32_t s);

    /** Take slot `s` out of its disk's top set. */
    void leaveTop(std::uint32_t s);

    /**
     * File ranked slot `s`, outside its disk's top set, on the parked
     * list if it does not beat the set's floor, else on the heap.
     */
    void placeOutside(std::uint32_t s);

    /** Push `r` onto `dr`'s top set, compacting an overgrown one. */
    void topPush(DiskRanking& dr, Ranked r);

    /** Put `r`'s slot on `dr`'s parked list, at `r`'s key. */
    void park(DiskRanking& dr, const Ranked& r);

    /** Move `dr`'s parked candidates onto its heap. */
    void unpark(DiskRanking& dr, unsigned disk);

    /** Push `r` onto `dr`'s heap, compacting an overgrown heap. */
    void heapPush(DiskRanking& dr, Ranked r);

    /**
     * Drop stale entries from the front of `dr`'s heap.
     * @return The best live outsider's entry, or nullptr.
     */
    const Ranked* heapBest(DiskRanking& dr);

    /**
     * Drop stale entries from the front of `dr`'s top set.
     * @return The worst member's entry (the floor), or nullptr.
     */
    const Ranked* topWorst(DiskRanking& dr);

    /** Fill `dr`'s top set to capacity, then swap while improvable. */
    void rebalance(DiskRanking& dr, unsigned disk);

    /** Set the incumbent flag of `block` if it is in the pool. */
    void markIncumbent(ArrayBlock block, bool incumbent);

    DiskArray& array_;
    HdcSpec spec_;

    /** Per-disk HDC region capacity (uniform controllers). */
    std::uint64_t capacityBlocks_;

    /** Count-min sketch, rows_ x cols_ row-major. */
    std::vector<Cell> sketch_;
    unsigned rows_;
    std::uint64_t cols_;

    /**
     * Candidate pool: slots are handed out in order and an eviction
     * reuses the evicted slot, so the used slots are always the dense
     * prefix [0, cands_.size()). Reserved up to the default bound,
     * grown on demand beyond it.
     */
    std::vector<Candidate> cands_;
    FlatTable<std::uint32_t> candSlot_;  ///< Block -> pool slot.
    std::uint32_t lruHead_ = kNullSlot;  ///< Most recent miss.
    std::uint32_t lruTail_ = kNullSlot;  ///< Next eviction victim.

    /**
     * Pinned blocks currently outside the pool. While it is 0 a new
     * candidate cannot be an incumbent, and its insert skips the pin
     * set's binary search.
     */
    std::uint64_t pinnedOutside_ = 0;

    /** Slots to re-score at the next epoch, each once. */
    std::vector<std::uint32_t> dirty_;
    /** The sketch aged (or nothing is scored yet): re-score all. */
    bool rebuildPending_ = true;

    std::vector<DiskRanking> rankings_;

    /** Current pin set of each logical disk, sorted ascending. */
    std::vector<std::vector<ArrayBlock>> pinnedPerDisk_;
    std::uint64_t pinnedNow_ = 0;

    /**
     * Since the last epoch's commands: pinned blocks that left a top
     * set (possible unpins) and unpinned ones that entered one
     * (possible pins). Each epoch settles them against the top sets.
     */
    std::vector<ArrayBlock> leftTop_;
    std::vector<ArrayBlock> enteredTop_;

    /** Blocks of a record that onAccess() hashes ahead. */
    static constexpr std::uint64_t kBatch = 16;
    /** onAccess() scratch: each batched block's sketch counters. */
    std::uint32_t batchCells_[kBatch][kMaxSketchRows] = {};

    /** Re-plan scratch, reused across epochs. */
    std::vector<ArrayBlock> toUnpin_;
    std::vector<ArrayBlock> toPin_;

    /** The previous epoch flagged a phase change. */
    bool fastMode_ = false;

    /** Miss count at the last sketch aging (volume-based decay). */
    std::uint64_t lastAgeMisses_ = 0;

    std::uint64_t fullRebuilds_ = 0;

    OnlineHdcCounters counters_;
};

} // namespace dtsim

#endif // DTSIM_HDC_ONLINE_POLICY_HH
