/**
 * @file
 * Figure-7 equivalence: a grid expressed as a sweep config file and
 * run through the config-driven sweep driver must produce results
 * identical (to the tick) to the hand-wired run sequence the figure
 * benches used -- same workload build, same bitmaps, same HDC pin
 * plan, same replay. Covered twice: a server workload shared by every
 * point (the Figure 7 striping grid) and a synthetic grid whose axis
 * changes the workload (the Figure 3-6 and ablation grids). The
 * shipped Table 2 sweep files must reproduce the matching cells of the
 * Figure 7/9/11 files. A lone Experiment and the same configuration
 * as a one-point sweep share one derivation path, so their dumps
 * match byte for byte.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "config/sweep_spec.hh"
#include "core/sweep_driver.hh"
#include "experiment_replay.hh"
#include "hdc/hdc_planner.hh"
#include "stats/dump_reader.hh"
#include "temp_path.hh"
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
    SCOPED_TRACE("cell " + std::to_string(cell));
    EXPECT_EQ(got.ioTime, ref.ioTime);
    EXPECT_EQ(got.flushTime, ref.flushTime);
    EXPECT_EQ(got.requests, ref.requests);
    EXPECT_EQ(got.blocks, ref.blocks);
    EXPECT_EQ(got.cacheHitRate, ref.cacheHitRate);
    EXPECT_EQ(got.hdcHitRate, ref.hdcHitRate);
    const ControllerStats& a = got.agg;
    const ControllerStats& b = ref.agg;
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.readBlocks, b.readBlocks);
    EXPECT_EQ(a.writeBlocks, b.writeBlocks);
    EXPECT_EQ(a.cacheHitRequests, b.cacheHitRequests);
    EXPECT_EQ(a.hdcHitRequests, b.hdcHitRequests);
    EXPECT_EQ(a.hdcHitBlocks, b.hdcHitBlocks);
    EXPECT_EQ(a.raHitBlocks, b.raHitBlocks);
    EXPECT_EQ(a.mediaAccesses, b.mediaAccesses);
    EXPECT_EQ(a.mediaBlocks, b.mediaBlocks);
    EXPECT_EQ(a.readAheadBlocks, b.readAheadBlocks);
    EXPECT_EQ(a.flushWrites, b.flushWrites);
    EXPECT_EQ(a.flushBlocks, b.flushBlocks);
    EXPECT_EQ(a.rebuildJobs, b.rebuildJobs);
    EXPECT_EQ(a.rebuildBlocks, b.rebuildBlocks);
    EXPECT_EQ(a.seekTime, b.seekTime);
    EXPECT_EQ(a.rotTime, b.rotTime);
    EXPECT_EQ(a.xferTime, b.xferTime);
    EXPECT_EQ(a.mediaBusy, b.mediaBusy);
    EXPECT_EQ(a.queueTime, b.queueTime);
    EXPECT_EQ(a.busTime, b.busTime);
    EXPECT_EQ(a.latencySum, b.latencySum);
    EXPECT_EQ(a.latencyMax, b.latencyMax);
}

/** Load a shipped sweep file at test scale and expand its grid. */
std::vector<SweepPoint>
shippedGrid(const std::string& name)
{
    SweepSpec spec;
    std::string err;
    EXPECT_TRUE(loadSweepFile(std::string(DTSIM_SOURCE_DIR) +
                                  "/examples/sweeps/" + name,
                              spec, err))
        << err;
    spec.base.scale = kScale;
    std::vector<SweepPoint> points = expandSweep(spec, err);
    EXPECT_EQ(points.size(), spec.points()) << name << ": " << err;
    return points;
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

TEST(Fig07Equivalence, Table2CellsAreStripingFigureCells)
{
    // Each Table 2 file shares four points with its server's striping
    // figure: Segm and FOR at HDC 0 and 2 MiB, at the table's unit. A
    // base key that drifts between the two files changes those cells.
    // Only the shared points run; the rest of either grid is dropped
    // after expansion.
    const struct
    {
        const char* table;
        const char* figure;
    } pairs[] = {
        {"table2_web.conf", "fig07_web_striping.conf"},
        {"table2_proxy.conf", "fig09_proxy_striping.conf"},
        {"table2_file.conf", "fig11_file_striping.conf"},
    };
    for (const auto& pair : pairs) {
        SCOPED_TRACE(pair.table);
        std::vector<SweepPoint> table = shippedGrid(pair.table);
        std::vector<SweepPoint> figure = shippedGrid(pair.figure);
        ASSERT_EQ(table.size(), 6u);
        const std::uint64_t unit = table.front().cfg.system.stripeUnitBytes;
        std::erase_if(table, [](const SweepPoint& p) {
            return p.cfg.system.kind == SystemKind::NoRA;
        });
        std::erase_if(figure, [unit](const SweepPoint& p) {
            return p.cfg.system.stripeUnitBytes != unit;
        });
        ASSERT_EQ(table.size(), 4u);
        ASSERT_EQ(figure.size(), 4u);
        for (std::size_t i = 0; i < 4; ++i) {
            EXPECT_EQ(table[i].cfg.system.kind, figure[i].cfg.system.kind);
            EXPECT_EQ(table[i].cfg.system.hdc.budgetBytesPerDisk,
                      figure[i].cfg.system.hdc.budgetBytesPerDisk);
        }
        const std::vector<RunResult> got = runSweepPoints(table);
        const std::vector<RunResult> ref = runSweepPoints(figure);
        for (std::size_t i = 0; i < 4; ++i)
            expectSameRun(got[i], ref[i], i);
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

/** The stripped stats dump at `path`. */
std::string
readStripped(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return stats::stripVolatile(os.str());
}

/**
 * Run `sim` alone and as a one-point sweep, both dumping to the same
 * path (the header names it), and expect the same stripped dump.
 */
void
expectLoneRunMatchesOnePointSweep(SimulationConfig sim)
{
    sim.output.statsOut = test::tempPath("stats.txt");
    Experiment(sim).run();
    const std::string lone = readStripped(sim.output.statsOut);
    ASSERT_NE(lone.find("#conf workload.kind = "), std::string::npos);

    std::vector<SweepPoint> points(1);
    points[0].cfg = sim;
    runSweepPoints(points);
    EXPECT_EQ(readStripped(sim.output.statsOut), lone);
    std::remove(sim.output.statsOut.c_str());
}

TEST(Fig07Equivalence, LoneRunMatchesOnePointSweepWebForHdc)
{
    SimulationConfig sim;
    sim.workload = WorkloadKind::Web;
    sim.scale = kScale;
    sim.system.kind = SystemKind::FOR;
    sim.system.stripeUnitBytes = 16 * kKiB;
    sim.system.hdc.budgetBytesPerDisk = 2 * kMiB;
    expectLoneRunMatchesOnePointSweep(sim);
}

TEST(Fig07Equivalence, LoneRunMatchesOnePointSweepSyntheticSegm)
{
    SimulationConfig sim;
    sim.synthetic.numRequests = 2000;
    sim.system.kind = SystemKind::Segm;
    expectLoneRunMatchesOnePointSweep(sim);
}

} // namespace
