/**
 * @file
 * Figure-7 equivalence: a grid expressed as a sweep config file and
 * run through the config-driven sweep driver must produce results
 * identical (to the tick) to the hand-wired run sequence the figure
 * benches used -- same workload build, same bitmaps, same HDC pin
 * plan, same replay. Covered twice: a server workload shared by every
 * point (the Figure 7 striping grid) and a synthetic grid whose axis
 * changes the workload (the Figure 3-6 and ablation grids).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "config/sweep_spec.hh"
#include "core/sweep_driver.hh"
#include "experiment_replay.hh"
#include "hdc/hdc_planner.hh"
#include "workload/server_models.hh"
#include "workload/synthetic.hh"

using namespace dtsim;

namespace {

constexpr double kScale = 0.01;

/** Expand and run `sweep_text`, expecting `n` feasible points. */
std::vector<RunResult>
runSweepText(const std::string& sweep_text, std::size_t n)
{
    SweepSpec spec;
    std::string err;
    EXPECT_TRUE(loadSweepText(sweep_text, "grid.conf", spec, err))
        << err;
    std::vector<SweepPoint> points = expandSweep(spec, err);
    EXPECT_EQ(points.size(), n) << err;
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_TRUE(points[i].feasible)
            << i << ": " << points[i].whyNot;
    return runSweepPoints(points);
}

/**
 * The hand-wired run of one grid cell: bitmaps for `cfg`'s striping,
 * an oracle pin plan when HDC is on, then one replay.
 */
RunResult
handWiredRun(const SystemConfig& cfg, const Trace& trace,
             const FileSystemImage& image)
{
    StripingMap striping(cfg.disks,
                         cfg.stripeUnitBytes / cfg.disk.blockSize,
                         cfg.disk.totalBlocks());
    const std::vector<LayoutBitmap> bitmaps =
        image.buildBitmaps(striping);
    std::vector<ArrayBlock> pinned;
    const std::vector<ArrayBlock>* pp = nullptr;
    if (cfg.hdc.budgetBytesPerDisk > 0) {
        pinned = selectPinnedBlocks(trace, striping,
                                    hdcBlocksPerDisk(cfg));
        pp = &pinned;
    }
    return dtsim::test::replayTrace(cfg, trace, &bitmaps, pp);
}

void
expectSameRun(const RunResult& got, const RunResult& ref,
              std::size_t cell)
{
    EXPECT_EQ(got.ioTime, ref.ioTime) << "cell " << cell;
    EXPECT_EQ(got.flushTime, ref.flushTime) << "cell " << cell;
    EXPECT_EQ(got.blocks, ref.blocks) << "cell " << cell;
    EXPECT_EQ(got.agg.reads, ref.agg.reads) << "cell " << cell;
    EXPECT_EQ(got.agg.hdcHitRequests, ref.agg.hdcHitRequests)
        << "cell " << cell;
}

TEST(Fig07Equivalence, SweepFileMatchesHandWiredRuns)
{
    {
        // The fig07 grid shape at test scale: striping unit rows, the
        // figure's Segm / Segm+HDC / FOR / FOR+HDC columns.
        SCOPED_TRACE("web striping grid");
        const std::vector<RunResult> driver = runSweepText(
            "workload.kind = web\n"
            "workload.scale = " + std::to_string(kScale) + "\n"
            "sweep system.stripe_unit_bytes = 16384, 65536\n"
            "sweep system.kind = segm, for\n"
            "sweep hdc.budget_bytes_per_disk = 0, 2097152\n",
            8);
        ASSERT_EQ(driver.size(), 8u);

        // The hand-wired equivalent, exactly as the pre-config figure
        // benches did it: build the workload once, then one run per
        // cell.
        const ServerModelParams params = webServerParams(kScale);
        SystemConfig base;
        base.streams = params.streams;
        ServerWorkload w = makeServerWorkload(
            params, base.disks * base.disk.totalBlocks());

        std::size_t i = 0;
        for (std::uint64_t unit_bytes : {16384u, 65536u}) {
            for (SystemKind kind :
                 {SystemKind::Segm, SystemKind::FOR}) {
                for (std::uint64_t hdc : {0ull, 2097152ull}) {
                    SystemConfig cfg = base;
                    cfg.stripeUnitBytes = unit_bytes;
                    cfg.kind = kind;
                    cfg.hdc.budgetBytesPerDisk = hdc;
                    expectSameRun(
                        driver[i],
                        handWiredRun(cfg, w.trace, *w.image), i);
                    ++i;
                }
            }
        }
        EXPECT_EQ(i, 8u);
    }
    {
        // A synthetic grid whose first axis changes the workload, so
        // each row builds its own trace, image, bitmaps and pins.
        SCOPED_TRACE("synthetic write grid");
        const std::vector<RunResult> driver = runSweepText(
            "workload.kind = synthetic\n"
            "synthetic.requests = 1000\n"
            "sweep synthetic.write_prob = 0, 0.6\n"
            "sweep system.kind = segm, for\n"
            "sweep hdc.budget_bytes_per_disk = 0, 2097152\n",
            8);
        ASSERT_EQ(driver.size(), 8u);

        // The hand-wired equivalent, as the synthetic figure benches
        // ran it: makeSynthetic per row, then one run per cell.
        const SystemConfig base;
        std::size_t i = 0;
        for (double write_prob : {0.0, 0.6}) {
            SyntheticParams sp;
            sp.numRequests = 1000;
            sp.writeProb = write_prob;
            SyntheticWorkload w = makeSynthetic(
                sp, base.disks * base.disk.totalBlocks());
            for (SystemKind kind :
                 {SystemKind::Segm, SystemKind::FOR}) {
                for (std::uint64_t hdc : {0ull, 2097152ull}) {
                    SystemConfig cfg = base;
                    cfg.kind = kind;
                    cfg.hdc.budgetBytesPerDisk = hdc;
                    expectSameRun(
                        driver[i],
                        handWiredRun(cfg, w.trace, *w.image), i);
                    ++i;
                }
            }
        }
        EXPECT_EQ(i, 8u);
    }
}

TEST(Fig07Equivalence, CacheSharingDoesNotChangeResults)
{
    // Running the same grid point through a shared SweepCache and
    // through a throwaway cache must be bit-identical.
    SweepSpec spec;
    spec.base.workload = WorkloadKind::Web;
    spec.base.scale = kScale;
    spec.axes.push_back({"system.kind", {"segm", "for"}});

    std::string err;
    std::vector<SweepPoint> a = expandSweep(spec, err);
    std::vector<SweepPoint> b = expandSweep(spec, err);
    ASSERT_EQ(a.size(), 2u);

    SweepCache shared;
    const std::vector<RunResult> ra = runSweepPoints(a, shared);
    const std::vector<RunResult> rb = runSweepPoints(b);
    for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].ioTime, rb[i].ioTime);
        EXPECT_EQ(ra[i].blocks, rb[i].blocks);
    }
}

} // namespace
