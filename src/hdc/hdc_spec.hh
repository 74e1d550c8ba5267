/**
 * @file
 * The typed host-policy specification of the HDC pinned region.
 *
 * One struct carries the policy choice (off | oracle | online), the
 * per-disk byte budget, and the knobs of the online planner (re-plan
 * cadence, count-min sketch shape, candidate-pool size, phase-change
 * threshold). It is registered as the `hdc.*` parameter group; the
 * legacy `system.hdc_bytes_per_disk` / `system.hdc_policy` keys stay
 * bound to the same fields so existing configs and result headers
 * keep loading unchanged.
 */

#ifndef DTSIM_HDC_HDC_SPEC_HH
#define DTSIM_HDC_HDC_SPEC_HH

#include <cstdint>

#include "sim/ticks.hh"

namespace dtsim {

/**
 * Most count-min counters (hdc.sketch_rows x hdc.sketch_cols) an
 * online sketch may hold: 2^28 32-bit counters, 1 GiB. validateConfig
 * refuses larger sketches and OnlineHdcPolicy fatals on them, so a
 * mistyped shape fails at the config boundary instead of in the
 * allocator.
 */
constexpr std::uint64_t kMaxSketchCells = std::uint64_t{1} << 28;

/**
 * Most count-min rows (hdc.sketch_rows) an online sketch may have:
 * each candidate caches its counter in every row inside its one
 * cache-line record, so the per-candidate cache is bounded by the
 * record, not by the configured rows. validateConfig refuses more
 * rows and OnlineHdcPolicy fatals on them.
 */
constexpr unsigned kMaxSketchRows = 8;

/** Host policy driving the HDC pinned region. */
enum class HdcPolicy
{
    /** HDC disabled regardless of the byte budget. */
    Off,

    /**
     * Pin the most-missed blocks up front from perfect trace
     * knowledge (the paper's evaluation policy).
     */
    Oracle,

    /**
     * Online planner: observe buffer-cache misses during the run
     * (count-min sketch over a bounded candidate pool), periodically
     * re-plan the per-disk top-k pin sets, and ship incremental
     * pin/unpin deltas to the controllers mid-run.
     */
    Online,
};

/** Typed configuration of the HDC host policy (the hdc.* group). */
struct HdcSpec
{
    /** How the host manages the HDC region. */
    HdcPolicy policy = HdcPolicy::Oracle;

    /** HDC pinned-region budget per controller (0 = HDC off). */
    std::uint64_t budgetBytesPerDisk = 0;

    /** Online: base re-plan period in simulated ticks. */
    Tick replanIntervalTicks = 100 * kMsec;

    /** Online: count-min sketch rows (independent hash functions). */
    unsigned sketchRows = 4;

    /** Online: count-min sketch columns (counters per row). */
    std::uint64_t sketchCols = 65536;

    /** Online: bound on the recency-held candidate block pool. */
    std::uint64_t candidateBlocks = 65536;

    /**
     * Online: epoch-over-epoch hot-set churn (1 - overlap fraction)
     * above which a phase change is declared and the next re-plan is
     * scheduled at a quarter of the base period.
     */
    double churnThreshold = 0.5;

    /** True when a pinned region exists at all. */
    bool
    enabled() const
    {
        return budgetBytesPerDisk > 0 && policy != HdcPolicy::Off;
    }

    /** True when the online planner drives the region. */
    bool
    online() const
    {
        return enabled() && policy == HdcPolicy::Online;
    }

    /**
     * True when the hdc.* group must appear in effective-config
     * headers: the policy or an online knob left the state the legacy
     * system.hdc_* keys can express. Keeping the group elided
     * otherwise preserves pre-redesign headers byte for byte.
     */
    bool
    headerNeeded() const
    {
        const HdcSpec d;
        return policy == HdcPolicy::Online ||
               policy == HdcPolicy::Off ||
               replanIntervalTicks != d.replanIntervalTicks ||
               sketchRows != d.sketchRows ||
               sketchCols != d.sketchCols ||
               candidateBlocks != d.candidateBlocks ||
               churnThreshold != d.churnThreshold;
    }
};

} // namespace dtsim

#endif // DTSIM_HDC_HDC_SPEC_HH
