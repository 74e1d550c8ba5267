/**
 * @file
 * Tests for the online HDC host policy (hdc.policy = online): the
 * miss sketch, re-plan ranking, oracle convergence, phase-change
 * detection and the unified pin router it issues deltas through.
 *
 * OnlineHdcDifferential keeps the policy's original node-based
 * ranking (std::list + std::unordered_map candidate pool,
 * std::unordered_set pin sets, partial_sort) as a reference and
 * requires the production policy to match it after every epoch of
 * seeded miss streams, in the style of test_container_equiv.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/experiment.hh"
#include "experiment_replay.hh"
#include "hdc/hdc_planner.hh"
#include "hdc/online_policy.hh"
#include "sim/rng.hh"
#include "workload/synthetic.hh"

namespace dtsim {
namespace {

/** A 2-disk array with a small HDC region, 1-block stripe units. */
struct Rig
{
    EventQueue eq;
    ArrayConfig cfg;
    std::unique_ptr<DiskArray> array;

    explicit Rig(std::uint64_t hdc_bytes = 4 * 4096)
    {
        cfg.disks = 2;
        cfg.stripeUnitBytes = 4 * kKiB;
        cfg.controller.hdcBytes = hdc_bytes;
        array = std::make_unique<DiskArray>(eq, cfg);
    }

    std::uint64_t
    pinnedTotal() const
    {
        std::uint64_t n = 0;
        for (unsigned d = 0; d < array->disks(); ++d)
            n += array->controller(d).hdcPinnedBlocks();
        return n;
    }
};

HdcSpec
onlineSpec()
{
    HdcSpec h;
    h.policy = HdcPolicy::Online;
    h.budgetBytesPerDisk = 4 * 4096;
    return h;
}

TEST(OnlineHdc, ReplanPinsHottestBlocksPerDisk)
{
    Rig r;   // Capacity: 4 blocks per disk.
    OnlineHdcPolicy p(*r.array, onlineSpec());

    // Unit striping: block b lives on disk b % 2. Blocks 0..15 seen
    // once; 0,2,4,6 (disk 0) and 1,3,5,7 (disk 1) seen three more
    // times -- they are the per-disk top-4.
    for (ArrayBlock b = 0; b < 16; ++b)
        p.observeMiss(b);
    for (int rep = 0; rep < 3; ++rep)
        for (ArrayBlock b = 0; b < 8; ++b)
            p.observeMiss(b);
    EXPECT_EQ(p.counters().misses, 16u + 24u);

    p.replan();
    r.eq.run();   // Apply any deferred commands.

    EXPECT_EQ(p.pinnedNow(), 8u);
    EXPECT_EQ(r.pinnedTotal(), 8u);
    for (ArrayBlock b = 0; b < 8; ++b)
        EXPECT_TRUE(p.isPinned(b)) << "block " << b;
    for (ArrayBlock b = 8; b < 16; ++b)
        EXPECT_FALSE(p.isPinned(b)) << "block " << b;
    EXPECT_EQ(p.counters().pins, 8u);
    EXPECT_EQ(p.counters().unpins, 0u);
}

TEST(OnlineHdc, ConvergesToOraclePlan)
{
    // A stationary Zipf workload: after a few observe/replan epochs
    // the sketch's per-disk top-k must largely agree with the oracle
    // planner's pick over the same trace.
    SystemConfig sys;
    sys.disks = 2;
    sys.stripeUnitBytes = 4 * kKiB;
    sys.hdc.budgetBytesPerDisk = 64 * 4096;

    SyntheticParams sp;
    sp.numFiles = 2000;
    sp.fileSizeBytes = 4 * kKiB;
    sp.numRequests = 20000;
    sp.zipfAlpha = 0.9;
    const SyntheticWorkload w =
        makeSynthetic(sp, sys.disks * sys.disk.totalBlocks());

    StripingMap striping(sys.disks,
                         sys.stripeUnitBytes / sys.disk.blockSize,
                         sys.disk.totalBlocks());
    const std::vector<ArrayBlock> oracle = selectPinnedBlocks(
        w.trace, striping, hdcBlocksPerDisk(sys));
    ASSERT_FALSE(oracle.empty());

    Rig r(sys.hdc.budgetBytesPerDisk);
    HdcSpec spec = onlineSpec();
    spec.budgetBytesPerDisk = sys.hdc.budgetBytesPerDisk;
    OnlineHdcPolicy p(*r.array, spec);

    // Stream the trace in 4 epochs, re-planning after each.
    const std::size_t n = w.trace.size();
    std::size_t i = 0;
    for (int epoch = 0; epoch < 4; ++epoch) {
        const std::size_t end = n * (epoch + 1) / 4;
        for (; i < end; ++i)
            p.onAccess(w.trace[i].start, w.trace[i].count);
        p.replan();
    }
    r.eq.run();

    std::size_t agree = 0;
    for (const ArrayBlock b : oracle)
        if (p.isPinned(b))
            ++agree;
    // The sketch sees the same stationary distribution the oracle
    // ranked, so the pin sets should mostly coincide.
    EXPECT_GE(agree * 10, oracle.size() * 6)
        << agree << " of " << oracle.size() << " oracle pins held";
    EXPECT_EQ(r.pinnedTotal(), p.pinnedNow());
}

TEST(OnlineHdc, PhaseChangeTriggersFastReplanAndRotation)
{
    Rig r;
    HdcSpec spec = onlineSpec();
    spec.replanIntervalTicks = 400;
    OnlineHdcPolicy p(*r.array, spec);

    // Phase A: blocks 0..7 hot; two calm epochs.
    for (int rep = 0; rep < 8; ++rep)
        for (ArrayBlock b = 0; b < 8; ++b)
            p.observeMiss(b);
    p.replan();
    EXPECT_EQ(p.nextIntervalTicks(), 400);   // First plan: no churn.
    for (int rep = 0; rep < 8; ++rep)
        for (ArrayBlock b = 0; b < 8; ++b)
            p.observeMiss(b);
    p.replan();
    EXPECT_EQ(p.counters().fastReplans, 0u);
    EXPECT_EQ(p.nextIntervalTicks(), 400);

    // Phase B: the hot set jumps to 100..107.
    for (int rep = 0; rep < 32; ++rep)
        for (ArrayBlock b = 100; b < 108; ++b)
            p.observeMiss(b);
    p.replan();
    EXPECT_EQ(p.counters().fastReplans, 1u);
    EXPECT_EQ(p.nextIntervalTicks(), 100);   // Base / 4.

    r.eq.run();
    for (ArrayBlock b = 100; b < 108; ++b)
        EXPECT_TRUE(p.isPinned(b)) << "block " << b;
    EXPECT_FALSE(p.isPinned(0));
    EXPECT_EQ(p.pinnedNow(), 8u);
    EXPECT_EQ(r.pinnedTotal(), 8u);
    EXPECT_EQ(p.counters().pins - p.counters().unpins, p.pinnedNow());
}

TEST(OnlineHdc, RunnerIntegration)
{
    // Full run through the facade: the policy must observe, re-plan
    // on its interval, and report activity in the result.
    SystemConfig cfg;
    cfg.disks = 2;
    cfg.streams = 8;
    cfg.stripeUnitBytes = 32 * kKiB;
    cfg.kind = SystemKind::Segm;
    cfg.hdc.policy = HdcPolicy::Online;
    cfg.hdc.budgetBytesPerDisk = kMiB;
    cfg.hdc.replanIntervalTicks = 20 * kMsec;

    SyntheticParams sp;
    sp.numFiles = 500;
    sp.fileSizeBytes = 16 * kKiB;
    sp.numRequests = 3000;
    sp.zipfAlpha = 0.9;
    const SyntheticWorkload w =
        makeSynthetic(sp, cfg.disks * cfg.disk.totalBlocks());

    Experiment e(test::withSystem(cfg));
    e.replay(w.trace);
    const RunResult r = e.run();

    EXPECT_GT(r.onlineMisses, 0u);
    EXPECT_GT(r.onlineReplans, 0u);
    EXPECT_GT(r.onlinePins, 0u);
    EXPECT_GT(r.requests, 0u);
    // The oracle warm-start must NOT have run: pins come only from
    // the online deltas.
    EXPECT_GE(r.onlinePins, r.onlineUnpins);
}

TEST(OnlineHdc, OracleDumpStaysPure)
{
    // An oracle-policy run's dump must carry no sim.hdc.online group
    // and no hdc. header lines: byte-compatibility with
    // pre-online dumps is load-bearing (golden_dump_smoke).
    SystemConfig cfg;
    cfg.disks = 2;
    cfg.streams = 8;
    cfg.kind = SystemKind::Segm;
    cfg.hdc.budgetBytesPerDisk = kMiB;   // Default policy: oracle.

    SyntheticParams sp;
    sp.numFiles = 200;
    sp.fileSizeBytes = 16 * kKiB;
    sp.numRequests = 500;
    const SyntheticWorkload w =
        makeSynthetic(sp, cfg.disks * cfg.disk.totalBlocks());

    std::ostringstream os;
    Experiment e(test::withSystem(cfg));
    e.replay(w.trace).statsTo(StatsSink::stream(os));
    e.run();
    const std::string dump = os.str();
    EXPECT_EQ(dump.find("sim.hdc.online"), std::string::npos);
    EXPECT_NE(dump.find("sim.config.hdc_kb_per_disk 1024"),
              std::string::npos);
}

TEST(OnlineHdc, HeaderElisionFollowsPolicy)
{
    SimulationConfig sim;
    const std::string plain = renderConfigHeader(sim);
    // Defaults: the legacy aliases print, the new groups stay silent.
    EXPECT_NE(plain.find("system.hdc_bytes_per_disk"),
              std::string::npos);
    EXPECT_EQ(plain.find("#conf hdc."), std::string::npos);

    sim.system.hdc.policy = HdcPolicy::Online;
    const std::string online = renderConfigHeader(sim);
    EXPECT_NE(online.find("hdc.policy = online"), std::string::npos);
}

TEST(PinRouter, ImmediateBeforeRunDeferredDuring)
{
    Rig r;
    // Host time 0: the router applies synchronously (warm start).
    EXPECT_TRUE(r.array->pinLogicalBlock(0));
    EXPECT_EQ(r.pinnedTotal(), 1u);

    // Mid-run (host clock advanced): the same call defers the
    // command by one command latency.
    std::uint64_t seen_at_call = ~0ull;
    r.eq.scheduleAt(1 * kMsec, [&] {
        EXPECT_TRUE(r.array->pinLogicalBlock(1));
        seen_at_call = r.pinnedTotal();
    });
    r.eq.run();
    EXPECT_EQ(seen_at_call, 1u);   // Not yet applied inside the call.
    EXPECT_EQ(r.pinnedTotal(), 2u);

    // Unpin routes the same way.
    r.eq.scheduleAt(2 * kMsec, [&] {
        EXPECT_TRUE(r.array->unpinLogicalBlock(0));
    });
    r.eq.run();
    EXPECT_EQ(r.pinnedTotal(), 1u);
}

TEST(PinRouter, DeferredPinLandsAfterCommandLatency)
{
    Rig r;
    const Tick lat = r.array->commandLatency();
    ASSERT_GT(lat, 0);
    const Tick call = 1 * kMsec;
    std::uint64_t just_before = ~0ull;
    r.eq.scheduleAt(call, [&] { r.array->pinLogicalBlock(3); });
    r.eq.scheduleAt(call + lat - 1,
                    [&] { just_before = r.pinnedTotal(); });
    r.eq.run();
    EXPECT_EQ(just_before, 0u);
    EXPECT_EQ(r.pinnedTotal(), 1u);
    // Logical block 3 lives on disk 1 under unit striping.
    EXPECT_EQ(r.array->controller(0).hdcPinnedBlocks(), 0u);
    EXPECT_EQ(r.array->controller(1).hdcPinnedBlocks(), 1u);
}

TEST(PinRouter, UnpinThenPinInIssueOrderNeverOverflows)
{
    Rig r;   // Capacity: 4 blocks per disk.
    // Fill disk 0's region at warm start: logical 0,2,4,6 are its
    // physical blocks 0..3. A fifth pin is refused.
    for (ArrayBlock b = 0; b < 8; b += 2)
        ASSERT_TRUE(r.array->pinLogicalBlock(b)) << "block " << b;
    EXPECT_FALSE(r.array->pinLogicalBlock(8));

    // Mid-run, retire the oldest pin and pin a new block in the same
    // host step, eight times over. Both commands pay the same latency
    // and land in issue order, so the full region never has to hold a
    // fifth block (a deferred pin that fails is fatal).
    for (ArrayBlock k = 0; k < 8; ++k)
        r.eq.scheduleAt((1 + k) * kMsec, [&r, k] {
            EXPECT_TRUE(r.array->unpinLogicalBlock(2 * k));
            EXPECT_TRUE(r.array->pinLogicalBlock(2 * (k + 4)));
        });
    r.eq.run();

    DiskController& d0 = r.array->controller(0);
    EXPECT_EQ(d0.hdcPinnedBlocks(), 4u);
    EXPECT_EQ(r.array->controller(1).hdcPinnedBlocks(), 0u);
    // The region holds the last four pinned: physical blocks 8..11.
    for (BlockNum b = 0; b < 8; ++b)
        EXPECT_FALSE(d0.unpinBlock(b)) << "block " << b;
    for (BlockNum b = 8; b < 12; ++b)
        EXPECT_TRUE(d0.unpinBlock(b)) << "block " << b;
}

TEST(PinRouter, MirroredDeferredCommandsReachBothReplicas)
{
    EventQueue eq;
    ArrayConfig cfg;
    cfg.disks = 4;   // Two mirrored pairs: 0/2 and 1/3.
    cfg.stripeUnitBytes = 4 * kKiB;
    cfg.mirrored = true;
    cfg.controller.hdcBytes = 4 * 4096;
    DiskArray array(eq, cfg);

    // Logical block 5 lives on disk 1; its replica is disk 3.
    eq.scheduleAt(1 * kMsec, [&] { array.pinLogicalBlock(5); });
    eq.run();
    EXPECT_EQ(array.controller(0).hdcPinnedBlocks(), 0u);
    EXPECT_EQ(array.controller(1).hdcPinnedBlocks(), 1u);
    EXPECT_EQ(array.controller(2).hdcPinnedBlocks(), 0u);
    EXPECT_EQ(array.controller(3).hdcPinnedBlocks(), 1u);

    eq.scheduleAt(2 * kMsec, [&] { array.unpinLogicalBlock(5); });
    eq.run();
    EXPECT_EQ(array.controller(1).hdcPinnedBlocks(), 0u);
    EXPECT_EQ(array.controller(3).hdcPinnedBlocks(), 0u);
}

TEST(OnlineHdc, ZeroBudgetNeverPins)
{
    Rig r(0);   // No HDC region on any controller.
    OnlineHdcPolicy p(*r.array, onlineSpec());
    for (int rep = 0; rep < 4; ++rep) {
        for (ArrayBlock b = 0; b < 20; ++b)
            p.observeMiss(b);
        p.replan();
    }
    r.eq.run();
    EXPECT_EQ(p.counters().misses, 80u);
    EXPECT_EQ(p.counters().pins, 0u);
    EXPECT_EQ(p.pinnedNow(), 0u);
    EXPECT_EQ(r.pinnedTotal(), 0u);
}

// ---------------------------------------------------------------------
// Production policy vs. the original node-based re-planner.
// ---------------------------------------------------------------------

/**
 * The online policy as first written: an LRU std::list candidate pool
 * indexed by std::unordered_map, std::unordered_set pin sets, and a
 * partial_sort whose comparator probes the pin set. Commands are
 * recorded instead of issued. It also counts the events the fuzz
 * cases exist to cover, so each case can prove it reached them.
 */
class RefOnlinePolicy
{
  public:
    RefOnlinePolicy(const StripingMap& striping, std::uint64_t capacity,
                    const HdcSpec& spec)
        : striping_(striping), spec_(spec), capacityBlocks_(capacity),
          rows_(spec.sketchRows), cols_(spec.sketchCols),
          sketch_(static_cast<std::size_t>(rows_) * cols_, 0),
          pinnedPerDisk_(striping.disks())
    {
    }

    void
    observeMiss(ArrayBlock block)
    {
        ++counters_.misses;
        sketchAdd(block);
        touchCandidate(block);
    }

    void
    onAccess(ArrayBlock start, std::uint64_t count)
    {
        for (std::uint64_t i = 0; i < count; ++i)
            observeMiss(start + i);
    }

    void
    replan()
    {
        unpins_.clear();
        pins_.clear();
        ++counters_.replans;
        if (capacityBlocks_ == 0)
            return;
        const unsigned disks = striping_.disks();
        struct Ranked
        {
            std::uint64_t est;
            ArrayBlock block;
        };
        std::vector<std::vector<Ranked>> ranked(disks);
        for (const ArrayBlock b : candLru_) {
            const std::uint64_t est = estimate(b);
            if (est == 0)
                continue;
            ranked[striping_.toPhysical(b).disk].push_back(
                Ranked{est, b});
        }

        bool hadPins = false;
        std::uint64_t desiredTotal = 0;
        std::uint64_t overlap = 0;
        for (unsigned d = 0; d < disks; ++d) {
            std::vector<Ranked>& r = ranked[d];
            std::unordered_set<ArrayBlock>& cur = pinnedPerDisk_[d];
            const std::size_t k = std::min<std::size_t>(
                r.size(), static_cast<std::size_t>(capacityBlocks_));
            if (r.size() < capacityBlocks_)
                ++underfullDisks_;
            std::partial_sort(
                r.begin(), r.begin() + k, r.end(),
                [&cur](const Ranked& a, const Ranked& b) {
                    const bool ap = cur.count(a.block) != 0;
                    const bool bp = cur.count(b.block) != 0;
                    const std::uint64_t ae = a.est + (ap ? 2 : 0);
                    const std::uint64_t be = b.est + (bp ? 2 : 0);
                    if (ae != be)
                        return ae > be;
                    if (ap != bp)
                        return ap;
                    return a.block < b.block;
                });
            // A raw-estimate tie straddling the cut: the order past
            // the estimate decides membership.
            if (k > 0 && k < r.size()) {
                for (std::size_t i = k; i < r.size(); ++i)
                    if (r[i].est == r[k - 1].est) {
                        ++cutTies_;
                        break;
                    }
            }
            r.resize(k);
            desiredTotal += k;

            std::unordered_set<ArrayBlock> desired;
            for (const Ranked& rk : r)
                desired.insert(rk.block);
            hadPins = hadPins || !cur.empty();
            for (const ArrayBlock b : cur) {
                if (desired.count(b))
                    ++overlap;
                else
                    unpins_.push_back(b);
            }
            for (const Ranked& rk : r)
                if (!cur.count(rk.block))
                    pins_.push_back(rk.block);
            cur = std::move(desired);
        }
        std::sort(unpins_.begin(), unpins_.end());
        std::sort(pins_.begin(), pins_.end());
        counters_.unpins += unpins_.size();
        counters_.pins += pins_.size();
        pinnedNow_ = pinnedNow_ - unpins_.size() + pins_.size();

        const double churn =
            desiredTotal == 0
                ? 0.0
                : 1.0 - static_cast<double>(overlap) /
                            static_cast<double>(desiredTotal);
        fastMode_ = hadPins && desiredTotal > 0 &&
                    churn > spec_.churnThreshold;
        if (fastMode_)
            ++counters_.fastReplans;

        const std::uint64_t age_volume =
            32 * capacityBlocks_ * striping_.disks();
        if (counters_.misses - lastAgeMisses_ >= age_volume) {
            for (std::uint32_t& c : sketch_)
                c >>= 1;
            lastAgeMisses_ = counters_.misses;
            ++agings_;
        }
    }

    Tick
    nextIntervalTicks() const
    {
        const Tick base = spec_.replanIntervalTicks;
        return fastMode_ ? std::max<Tick>(1, base / 4) : base;
    }

    bool
    isPinned(ArrayBlock block) const
    {
        return pinnedPerDisk_[striping_.toPhysical(block).disk].count(
                   block) != 0;
    }

    std::uint64_t
    pinnedOnDisk(unsigned d) const
    {
        return pinnedPerDisk_[d].size();
    }

    const OnlineHdcCounters& counters() const { return counters_; }
    std::uint64_t pinnedNow() const { return pinnedNow_; }
    const std::vector<ArrayBlock>& unpins() const { return unpins_; }
    const std::vector<ArrayBlock>& pins() const { return pins_; }

    std::uint64_t pinnedReentries() const { return pinnedReentries_; }
    std::uint64_t cutTies() const { return cutTies_; }
    std::uint64_t underfullDisks() const { return underfullDisks_; }
    std::uint64_t agings() const { return agings_; }

  private:
    static std::uint64_t
    mix64(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

    std::size_t
    slot(unsigned r, ArrayBlock block) const
    {
        const std::uint64_t h =
            mix64(block + 0x9e3779b97f4a7c15ull * (r + 1));
        return static_cast<std::size_t>(r) * cols_ + h % cols_;
    }

    std::uint64_t
    estimate(ArrayBlock block) const
    {
        std::uint32_t est = UINT32_MAX;
        for (unsigned r = 0; r < rows_; ++r)
            est = std::min(est, sketch_[slot(r, block)]);
        return est;
    }

    void
    sketchAdd(ArrayBlock block)
    {
        const std::uint64_t est = estimate(block);
        if (est == UINT32_MAX)
            return;
        for (unsigned r = 0; r < rows_; ++r) {
            std::uint32_t& c = sketch_[slot(r, block)];
            if (c == est)
                ++c;
        }
    }

    void
    touchCandidate(ArrayBlock block)
    {
        auto it = candMap_.find(block);
        if (it != candMap_.end()) {
            candLru_.splice(candLru_.begin(), candLru_, it->second);
            return;
        }
        if (candMap_.size() >= spec_.candidateBlocks) {
            const ArrayBlock old = candLru_.back();
            candLru_.pop_back();
            candMap_.erase(old);
        }
        if (isPinned(block))
            ++pinnedReentries_;
        candLru_.push_front(block);
        candMap_.emplace(block, candLru_.begin());
    }

    StripingMap striping_;
    HdcSpec spec_;
    std::uint64_t capacityBlocks_;
    unsigned rows_;
    std::uint64_t cols_;
    std::vector<std::uint32_t> sketch_;
    std::list<ArrayBlock> candLru_;
    std::unordered_map<ArrayBlock, std::list<ArrayBlock>::iterator>
        candMap_;
    std::vector<std::unordered_set<ArrayBlock>> pinnedPerDisk_;
    std::uint64_t pinnedNow_ = 0;
    bool fastMode_ = false;
    std::uint64_t lastAgeMisses_ = 0;
    OnlineHdcCounters counters_;
    std::vector<ArrayBlock> unpins_;
    std::vector<ArrayBlock> pins_;

    std::uint64_t pinnedReentries_ = 0;
    std::uint64_t cutTies_ = 0;
    std::uint64_t underfullDisks_ = 0;
    std::uint64_t agings_ = 0;
};

/** One differential fuzz configuration. */
struct FuzzCase
{
    unsigned disks = 2;
    std::uint64_t unitBlocks = 1;      ///< Stripe unit in blocks.
    std::uint64_t regionBlocks = 8;    ///< HDC capacity per disk.
    std::uint64_t candidates = 4096;   ///< hdc.candidate_blocks.
    unsigned rows = 4;
    std::uint64_t cols = 4096;
    ArrayBlock hotSpan = 256;          ///< Blocks drawn from a window.
    int epochs = 40;
    int missesPerEpoch = 200;
    /** Draws from a cyclic hot set (one miss per block per cycle, the
     *  host cache's flattened stream) instead of a skewed window. */
    bool flat = false;
    /** Epoch at which the window jumps (phase change); -1 = never. */
    int phaseAt = -1;
};

/**
 * Drive the production policy and the reference with the same seeded
 * miss stream and compare them after every epoch. The production
 * policy's commands are observed as it issues them to the array: the
 * sorted set differences of its pin set between epochs, whose sizes
 * must equal its pin/unpin counter deltas and whose result must be
 * resident in the controllers.
 * @param fullRebuilds If set, receives the production policy's count
 *     of epochs that re-scored the whole pool.
 * @return The reference, for the coverage assertions.
 */
std::unique_ptr<RefOnlinePolicy>
driveDifferential(const FuzzCase& fc, std::uint64_t seed,
                  std::uint64_t* fullRebuilds = nullptr)
{
    ArrayConfig cfg;
    cfg.disks = fc.disks;
    cfg.stripeUnitBytes = fc.unitBlocks * 4 * kKiB;
    cfg.controller.hdcBytes = fc.regionBlocks * 4096;
    EventQueue eq;
    const auto array = std::make_unique<DiskArray>(eq, cfg);

    HdcSpec spec = onlineSpec();
    spec.budgetBytesPerDisk = cfg.controller.hdcBytes;
    spec.candidateBlocks = fc.candidates;
    spec.sketchRows = fc.rows;
    spec.sketchCols = fc.cols;
    spec.replanIntervalTicks = 1000;

    OnlineHdcPolicy real(*array, spec);
    auto ref = std::make_unique<RefOnlinePolicy>(
        array->striping(), array->controller(0).hdcCapacityBlocks(),
        spec);
    Rng rng(seed);

    // Every block the stream can touch, across both phases, including
    // the last three blocks of a 4-block access at the window's end.
    const ArrayBlock space = 2 * fc.hotSpan + 64 + 3;
    std::vector<bool> pinnedBefore(space, false);
    ArrayBlock base = 0;
    ArrayBlock cursor = 0;

    for (int epoch = 0; epoch < fc.epochs; ++epoch) {
        if (epoch == fc.phaseAt)
            base = fc.hotSpan + 64;
        for (int m = 0; m < fc.missesPerEpoch; ++m) {
            ArrayBlock b;
            if (fc.flat && rng.below(8) != 0) {
                b = base + cursor;
                cursor = (cursor + 1) % fc.hotSpan;
            } else {
                // Skewed: low offsets in the window are hotter.
                b = base + rng.below(rng.below(fc.hotSpan) + 1);
            }
            if (rng.below(4) == 0) {
                const std::uint64_t n = 1 + rng.below(4);
                real.onAccess(b, n);
                ref->onAccess(b, n);
            } else {
                real.observeMiss(b);
                ref->observeMiss(b);
            }
        }

        const OnlineHdcCounters before = real.counters();
        real.replan();
        ref->replan();

        const std::string at = "seed " + std::to_string(seed) +
                               " epoch " + std::to_string(epoch);
        std::vector<ArrayBlock> unpins;
        std::vector<ArrayBlock> pins;
        for (ArrayBlock b = 0; b < space; ++b) {
            const bool now = real.isPinned(b);
            EXPECT_EQ(now, ref->isPinned(b)) << at << " block " << b;
            if (pinnedBefore[b] && !now)
                unpins.push_back(b);
            if (!pinnedBefore[b] && now)
                pins.push_back(b);
            pinnedBefore[b] = now;
        }
        EXPECT_EQ(unpins, ref->unpins()) << at;
        EXPECT_EQ(pins, ref->pins()) << at;
        EXPECT_EQ(real.counters().unpins - before.unpins, unpins.size())
            << at;
        EXPECT_EQ(real.counters().pins - before.pins, pins.size()) << at;

        const OnlineHdcCounters& a = real.counters();
        const OnlineHdcCounters& e = ref->counters();
        EXPECT_EQ(a.misses, e.misses) << at;
        EXPECT_EQ(a.replans, e.replans) << at;
        EXPECT_EQ(a.fastReplans, e.fastReplans) << at;
        EXPECT_EQ(a.pins, e.pins) << at;
        EXPECT_EQ(a.unpins, e.unpins) << at;
        EXPECT_EQ(real.pinnedNow(), ref->pinnedNow()) << at;
        EXPECT_EQ(real.nextIntervalTicks(), ref->nextIntervalTicks())
            << at;
        for (unsigned d = 0; d < fc.disks; ++d)
            EXPECT_EQ(array->controller(d).hdcPinnedBlocks(),
                      ref->pinnedOnDisk(d))
                << at << " disk " << d;
        if (::testing::Test::HasFailure())
            break;
    }
    if (fullRebuilds)
        *fullRebuilds = real.fullRebuilds();
    return ref;
}

TEST(OnlineHdcDifferential, DiskCounts)
{
    for (unsigned disks : {1u, 2u, 4u}) {
        FuzzCase fc;
        fc.disks = disks;
        fc.unitBlocks = disks == 4 ? 4 : 1;
        for (std::uint64_t seed : {1u, 2u}) {
            const auto ref = driveDifferential(fc, seed);
            EXPECT_GT(ref->counters().pins, 0u);
            EXPECT_GT(ref->counters().unpins, 0u);
        }
    }
}

TEST(OnlineHdcDifferential, RegionLargerThanCandidates)
{
    // A region bigger than a disk's ranked candidates: every
    // candidate is selected, so no swap ever runs.
    FuzzCase fc;
    fc.regionBlocks = 64;
    fc.hotSpan = 60;
    for (std::uint64_t seed : {3u, 4u}) {
        const auto ref = driveDifferential(fc, seed);
        EXPECT_GT(ref->underfullDisks(), 0u);
    }
}

TEST(OnlineHdcDifferential, LargeTieClassesAndAging)
{
    // The flattened stream plus a narrow sketch: most candidates share
    // an estimate, so the incumbent flag and the block order decide
    // the cut; the miss volume ages the sketch many times.
    FuzzCase fc;
    fc.flat = true;
    fc.cols = 64;
    fc.rows = 2;
    fc.hotSpan = 96;
    fc.missesPerEpoch = 300;
    for (std::uint64_t seed : {5u, 6u, 7u}) {
        const auto ref = driveDifferential(fc, seed);
        EXPECT_GT(ref->cutTies(), 0u);
        EXPECT_GT(ref->agings(), 2u);
    }
}

TEST(OnlineHdcDifferential, PhaseChange)
{
    // A hot set the size of the regions that jumps: the new blocks
    // overtake the aged old ones within one epoch.
    FuzzCase fc;
    fc.flat = true;
    fc.hotSpan = 16;
    fc.missesPerEpoch = 800;
    fc.phaseAt = 10;
    for (std::uint64_t seed : {8u, 9u}) {
        const auto ref = driveDifferential(fc, seed);
        EXPECT_GT(ref->counters().fastReplans, 0u);
    }
}

TEST(OnlineHdcDifferential, PinnedBlocksLeaveAndReenterThePool)
{
    // A pool barely larger than the pinned set: pinned blocks fall out
    // of the LRU pool and come back, and must come back incumbent.
    FuzzCase fc;
    fc.candidates = 24;
    fc.hotSpan = 200;
    fc.flat = true;
    for (std::uint64_t seed : {10u, 11u}) {
        const auto ref = driveDifferential(fc, seed);
        EXPECT_GT(ref->pinnedReentries(), 0u);
    }
}

TEST(OnlineHdcDifferential, LongRunMostlyIncremental)
{
    // Many epochs between agings: a narrow sketch (so one increment
    // dirties many watchers), a pool small enough that pinned blocks
    // leave and re-enter it, and a region large enough that the
    // sketch ages only every ~10 epochs. Most epochs must take the
    // incremental path and still match the reference exactly.
    FuzzCase fc;
    fc.regionBlocks = 16;
    fc.candidates = 48;
    fc.rows = 2;
    fc.cols = 96;
    fc.hotSpan = 160;
    fc.epochs = 400;
    fc.missesPerEpoch = 100;
    for (std::uint64_t seed : {12u, 13u}) {
        std::uint64_t rebuilds = 0;
        const auto ref = driveDifferential(fc, seed, &rebuilds);
        EXPECT_GT(ref->agings(), 20u);
        EXPECT_GT(ref->pinnedReentries(), 0u);
        EXPECT_GT(ref->cutTies(), 0u);
        EXPECT_LE(rebuilds, ref->agings() + 1);
        EXPECT_GT(ref->counters().replans, 5 * rebuilds);
    }
    fc.flat = true;
    fc.phaseAt = 200;
    std::uint64_t rebuilds = 0;
    const auto ref = driveDifferential(fc, 14, &rebuilds);
    EXPECT_GT(ref->counters().fastReplans, 0u);
    EXPECT_GT(ref->counters().replans, 5 * rebuilds);
}

TEST(OnlineHdcDifferential, SharedCountersDirtyTheirWatchers)
{
    // One narrow row: every block of a column shares one counter, so a
    // miss raises the estimate of candidates that were not missed
    // themselves. Few misses per epoch and rare aging leave many
    // epochs in which only those watchers' re-scoring keeps the
    // ranking exact.
    FuzzCase fc;
    fc.rows = 1;
    fc.cols = 16;
    fc.regionBlocks = 8;
    fc.candidates = 64;
    fc.hotSpan = 200;
    fc.epochs = 300;
    fc.missesPerEpoch = 20;
    for (std::uint64_t seed : {15u, 16u, 17u}) {
        std::uint64_t rebuilds = 0;
        const auto ref = driveDifferential(fc, seed, &rebuilds);
        EXPECT_GT(ref->counters().pins, 0u);
        EXPECT_GT(ref->counters().replans, 5 * rebuilds);
    }
}

} // namespace
} // namespace dtsim
