/**
 * @file
 * Tests for the parallel batch runner: Experiment::runAll() must
 * return results bit-identical to sequential Experiment::run() calls,
 * at any thread count.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <vector>

#include "core/experiment.hh"
#include "experiment_replay.hh"
#include "hdc/hdc_planner.hh"
#include "sim/host_threads.hh"
#include "workload/server_models.hh"

namespace dtsim {
namespace {

/** Every counter in RunResult must match exactly. */
void
expectIdentical(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.ioTime, b.ioTime);
    EXPECT_EQ(a.flushTime, b.flushTime);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.hdcHitRate, b.hdcHitRate);
    EXPECT_EQ(a.cacheHitRate, b.cacheHitRate);
    EXPECT_EQ(a.diskUtilization, b.diskUtilization);
    EXPECT_EQ(a.throughputMBps, b.throughputMBps);
    EXPECT_EQ(a.throughputElapsedMBps, b.throughputElapsedMBps);
    EXPECT_EQ(a.meanLatencyMs, b.meanLatencyMs);

    EXPECT_EQ(a.agg.reads, b.agg.reads);
    EXPECT_EQ(a.agg.writes, b.agg.writes);
    EXPECT_EQ(a.agg.readBlocks, b.agg.readBlocks);
    EXPECT_EQ(a.agg.writeBlocks, b.agg.writeBlocks);
    EXPECT_EQ(a.agg.cacheHitRequests, b.agg.cacheHitRequests);
    EXPECT_EQ(a.agg.hdcHitRequests, b.agg.hdcHitRequests);
    EXPECT_EQ(a.agg.hdcHitBlocks, b.agg.hdcHitBlocks);
    EXPECT_EQ(a.agg.raHitBlocks, b.agg.raHitBlocks);
    EXPECT_EQ(a.agg.mediaAccesses, b.agg.mediaAccesses);
    EXPECT_EQ(a.agg.mediaBlocks, b.agg.mediaBlocks);
    EXPECT_EQ(a.agg.readAheadBlocks, b.agg.readAheadBlocks);
    EXPECT_EQ(a.agg.flushWrites, b.agg.flushWrites);
    EXPECT_EQ(a.agg.flushBlocks, b.agg.flushBlocks);
    EXPECT_EQ(a.agg.seekTime, b.agg.seekTime);
    EXPECT_EQ(a.agg.rotTime, b.agg.rotTime);
    EXPECT_EQ(a.agg.xferTime, b.agg.xferTime);
    EXPECT_EQ(a.agg.mediaBusy, b.agg.mediaBusy);
}

/** One run of the batch: a system over shared replay inputs. */
struct Job
{
    SystemConfig cfg;
    const Trace* trace = nullptr;
    const std::vector<LayoutBitmap>* bitmaps = nullptr;
    const std::vector<ArrayBlock>* pinned = nullptr;
};

/** A small Web-server workload plus jobs across striping/HDC/kind. */
class SweepTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SystemConfig proto;
        ServerModelParams params = webServerParams(0.01);
        params.streams = 32;
        workload_ = makeServerWorkload(
            params, proto.disks * proto.disk.totalBlocks());

        const std::uint64_t units_kb[] = {16, 64, 128};
        bitmaps_.resize(std::size(units_kb));
        for (std::size_t i = 0; i < std::size(units_kb); ++i) {
            SystemConfig cfg = proto;
            cfg.streams = params.streams;
            cfg.stripeUnitBytes = units_kb[i] * kKiB;

            StripingMap striping(
                cfg.disks, cfg.stripeUnitBytes / cfg.disk.blockSize,
                cfg.disk.totalBlocks());
            bitmaps_[i] =
                workload_.image->buildBitmaps(striping);

            Job segm;
            segm.cfg = cfg;
            segm.cfg.kind = SystemKind::Segm;
            segm.trace = &workload_.trace;
            jobs_.push_back(std::move(segm));

            Job forr;
            forr.cfg = cfg;
            forr.cfg.kind = SystemKind::FOR;
            forr.trace = &workload_.trace;
            forr.bitmaps = &bitmaps_[i];
            jobs_.push_back(std::move(forr));
        }

        // One HDC job so pin-plan wiring is covered too.
        StripingMap striping(
            proto.disks,
            proto.stripeUnitBytes / proto.disk.blockSize,
            proto.disk.totalBlocks());
        Job hdc;
        hdc.cfg = proto;
        hdc.cfg.streams = params.streams;
        hdc.cfg.hdc.budgetBytesPerDisk = 1 * kMiB;
        hdc.trace = &workload_.trace;
        pinned_ = selectPinnedBlocks(
            workload_.trace, striping,
            hdcBlocksPerDisk(hdc.cfg));
        hdc.pinned = &pinned_;
        jobs_.push_back(std::move(hdc));
    }

    ServerWorkload workload_;
    std::vector<std::vector<LayoutBitmap>> bitmaps_;
    std::vector<ArrayBlock> pinned_;
    std::vector<Job> jobs_;

    /** The jobs as replay Experiments; no pin plan means no pins,
     *  like test::replayTrace(). */
    std::vector<Experiment>
    batch() const
    {
        static const std::vector<ArrayBlock> no_pins;
        std::vector<Experiment> out;
        for (const Job& job : jobs_) {
            Experiment e(test::withSystem(job.cfg));
            e.replay(*job.trace);
            if (job.bitmaps)
                e.bitmaps(*job.bitmaps);
            e.pins(job.pinned ? *job.pinned : no_pins);
            out.push_back(std::move(e));
        }
        return out;
    }

    /** Each job run alone, one after another. */
    std::vector<RunResult>
    sequential() const
    {
        std::vector<RunResult> out;
        for (const Job& job : jobs_) {
            out.push_back(test::replayTrace(
                job.cfg, *job.trace, job.bitmaps, job.pinned));
        }
        return out;
    }
};

TEST_F(SweepTest, SingleThreadMatchesSequentialRunTrace)
{
    const std::vector<RunResult> sequential = this->sequential();

    std::vector<Experiment> experiments = batch();
    const std::vector<RunResult> swept =
        Experiment::runAll(experiments, 1);
    ASSERT_EQ(swept.size(), sequential.size());
    for (std::size_t i = 0; i < swept.size(); ++i) {
        SCOPED_TRACE(i);
        expectIdentical(swept[i], sequential[i]);
    }
}

TEST_F(SweepTest, MultiThreadIsBitIdenticalToSequential)
{
    const std::vector<RunResult> sequential = this->sequential();

    for (unsigned threads : {2u, 4u, 7u}) {
        std::vector<Experiment> experiments = batch();
        const std::vector<RunResult> swept =
            Experiment::runAll(experiments, threads);
        ASSERT_EQ(swept.size(), sequential.size());
        for (std::size_t i = 0; i < swept.size(); ++i) {
            SCOPED_TRACE(::testing::Message()
                         << "threads=" << threads << " job=" << i);
            expectIdentical(swept[i], sequential[i]);
        }
    }
}

TEST(Sweep, EmptyAndThreadCountEdgeCases)
{
    std::vector<Experiment> empty;
    EXPECT_TRUE(Experiment::runAll(empty, 0).empty());
    EXPECT_TRUE(Experiment::runAll(empty, 16).empty());
}

TEST(Sweep, JobsEnvOverridesThreadCount)
{
    setenv("DTSIM_JOBS", "3", 1);
    EXPECT_EQ(hostThreads(), 3u);
    setenv("DTSIM_JOBS", "0", 1);
    EXPECT_GE(hostThreads(), 1u);
    unsetenv("DTSIM_JOBS");
    EXPECT_GE(hostThreads(), 1u);
}

TEST(Sweep, JobsEnvRejectsJunk)
{
    // Each value used to parse leniently: "abc" as all cores, "4x" as
    // 4, "-1" as all cores.
    for (const char* bad : {"abc", "4x", "-1"}) {
        SCOPED_TRACE(bad);
        setenv("DTSIM_JOBS", bad, 1);
        EXPECT_EXIT(hostThreads(), ::testing::ExitedWithCode(1),
                    "fatal: DTSIM_JOBS: ");
    }
    unsetenv("DTSIM_JOBS");
}

} // namespace
} // namespace dtsim
