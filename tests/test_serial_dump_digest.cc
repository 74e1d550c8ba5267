/**
 * @file
 * Serial dump regression: each configuration runs once and the FNV-1a
 * digest of its runtime-stripped stats dump (plus its request trace,
 * where the case writes one) must equal a committed constant. The
 * cases cover the figure-7..12 system shapes, the ablation-style
 * variants, mirroring, fault injection, the online HDC policy, and
 * periodic snapshots -- every path whose event ordering shows in a
 * dump.
 *
 * A mismatch prints the actual digest. Update a constant only with a
 * deliberate model change, and explain the dump diff alongside it.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>

#include "core/experiment.hh"
#include "stats/dump_reader.hh"
#include "stats/trace.hh"
#include "temp_path.hh"
#include "workload/server_models.hh"

namespace dtsim {
namespace {

constexpr double kScale = 0.01;

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** stats::fnv1a of `text`, rendered as 16 hex digits. */
std::string
digest(const std::string& text)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, stats::fnv1a(text));
    return buf;
}

/** One figure/ablation-shaped configuration under test. */
struct DigestCase
{
    SimulationConfig sim;

    /** Extra run options (snapshots, tracing, ...). */
    std::function<void(Experiment&)> tweak;

    explicit DigestCase(SimulationConfig s) : sim(std::move(s)) {}

    /** Run once; return the runtime-stripped stats dump. */
    std::string
    dump()
    {
        std::ostringstream os;
        Experiment e(sim);
        e.statsTo(StatsSink::stream(os));
        if (tweak)
            tweak(e);
        e.run();
        const std::string d = stats::stripVolatile(os.str());
        EXPECT_NE(d.find("sim.io_time_ms"), std::string::npos);
        return d;
    }
};

SimulationConfig
webConfig(SystemKind kind, std::uint64_t unit_bytes,
          std::uint64_t hdc_bytes)
{
    SimulationConfig sim;
    sim.workload = WorkloadKind::Web;
    sim.scale = kScale;
    sim.system.kind = kind;
    sim.system.disks = 4;
    sim.system.stripeUnitBytes = unit_bytes;
    sim.system.hdc.budgetBytesPerDisk = hdc_bytes;
    return sim;
}

SimulationConfig
faultConfig(std::uint64_t rebuild_blocks)
{
    SimulationConfig sim = webConfig(SystemKind::Segm, 16 * kKiB, 0);
    sim.system.mirrored = true;
    sim.system.fault.killAtTicks = 1 * kMsec;
    sim.system.fault.killDisk = 1;
    sim.system.fault.repairAtTicks = 500 * kMsec;
    sim.system.fault.rebuildBlocks = rebuild_blocks;
    return sim;
}

#define EXPECT_DIGEST(text, expected)                                   \
    EXPECT_EQ(digest(text), expected) << "actual digest: " << digest(text)

TEST(SerialDumpDigest, Fig07WebStriping)
{
    DigestCase c(webConfig(SystemKind::Segm, 16 * kKiB, 0));
    EXPECT_DIGEST(c.dump(), "116d7073c891ad1e");
}

TEST(SerialDumpDigest, Fig08WebForHdc)
{
    DigestCase c(webConfig(SystemKind::FOR, 64 * kKiB, 2 * kMiB));
    EXPECT_DIGEST(c.dump(), "cc814185c77bfdcf");
}

TEST(SerialDumpDigest, Fig10ProxyHdc)
{
    SimulationConfig sim;
    sim.workload = WorkloadKind::Proxy;
    sim.scale = kScale;
    sim.system.kind = SystemKind::Segm;
    sim.system.disks = 4;
    sim.system.hdc.budgetBytesPerDisk = 2 * kMiB;
    DigestCase c(std::move(sim));
    EXPECT_DIGEST(c.dump(), "8dfda80f6d5c1dd2");
}

TEST(SerialDumpDigest, Fig11FileServerStriping)
{
    SimulationConfig sim;
    sim.workload = WorkloadKind::File;
    sim.scale = kScale;
    sim.system.kind = SystemKind::FOR;
    sim.system.disks = 4;
    sim.system.stripeUnitBytes = 16 * kKiB;
    DigestCase c(std::move(sim));
    EXPECT_DIGEST(c.dump(), "90b23bb6abe7eb5a");
}

TEST(SerialDumpDigest, FileSegmSegmentPolicies)
{
    // Every other case runs Segm under LRU; these pin the victim
    // scans of the other three segment policies.
    const std::pair<SegmentPolicy, const char*> cases[] = {
        {SegmentPolicy::FIFO, "db6b70e0205c1687"},
        {SegmentPolicy::Random, "094ecd9c74f85006"},
        {SegmentPolicy::RoundRobin, "8301d2ee3021c6fd"},
    };
    for (const auto& [policy, expected] : cases) {
        SimulationConfig sim;
        sim.workload = WorkloadKind::File;
        sim.scale = kScale;
        sim.system.kind = SystemKind::Segm;
        sim.system.disks = 4;
        sim.system.stripeUnitBytes = 128 * kKiB;
        sim.system.segmentPolicy = policy;
        DigestCase c(std::move(sim));
        EXPECT_DIGEST(c.dump(), expected)
            << "policy " << segmentPolicyName(policy);
    }
}

TEST(SerialDumpDigest, AblationSchedulerAndZones)
{
    SimulationConfig sim;
    sim.workload = WorkloadKind::Synthetic;
    sim.system.kind = SystemKind::Block;
    sim.system.disks = 4;
    sim.system.scheduler = SchedulerKind::SSTF;
    sim.system.disk.recordingZones = 8;
    sim.synthetic.numFiles = 20000;
    sim.synthetic.fileSizeBytes = 16 * kKiB;
    sim.synthetic.numRequests = 400;
    sim.synthetic.writeProb = 0.2;
    sim.synthetic.zipfAlpha = 0.6;
    DigestCase c(std::move(sim));
    EXPECT_DIGEST(c.dump(), "fd83818cf85760c8");
}

TEST(SerialDumpDigest, AblationNoReadAheadClook)
{
    SimulationConfig sim;
    sim.workload = WorkloadKind::Synthetic;
    sim.system.kind = SystemKind::NoRA;
    sim.system.disks = 4;
    sim.system.scheduler = SchedulerKind::CLOOK;
    sim.system.stripeUnitBytes = 32 * kKiB;
    sim.synthetic.numFiles = 20000;
    sim.synthetic.fileSizeBytes = 8 * kKiB;
    sim.synthetic.numRequests = 400;
    sim.synthetic.zipfAlpha = 0.4;
    DigestCase c(std::move(sim));
    EXPECT_DIGEST(c.dump(), "3962d0e07b2d828e");
}

TEST(SerialDumpDigest, RequestTrace)
{
    DigestCase c(webConfig(SystemKind::Segm, 64 * kKiB, 0));
    const std::string path = test::tempPath("trace.bin");
    c.tweak = [&](Experiment& e) { e.traceTo(path); };
    EXPECT_DIGEST(c.dump(), "f21122c620ac073f");

    const std::string trace = slurp(path);
    EXPECT_FALSE(trace.empty());
    EXPECT_DIGEST(trace, "b267cb38557137fb");
    std::remove(path.c_str());
}

TEST(SerialDumpDigest, MirroredWebStriping)
{
    // Reads go to the replica with fewer outstanding requests, so
    // the order completions reserve the bus in shows in the dump.
    SimulationConfig sim = webConfig(SystemKind::Segm, 16 * kKiB, 0);
    sim.system.mirrored = true;
    DigestCase c(std::move(sim));
    EXPECT_DIGEST(c.dump(), "14e386e89af62af6");
}

TEST(SerialDumpDigest, MirroredForHdc)
{
    SimulationConfig sim =
        webConfig(SystemKind::FOR, 64 * kKiB, 2 * kMiB);
    sim.system.mirrored = true;
    DigestCase c(std::move(sim));
    EXPECT_DIGEST(c.dump(), "37d95685395d9c7b");
}

TEST(SerialDumpDigest, FaultKillRepairRebuild)
{
    // Scripted kill -> degraded reads -> repair -> rebuild traffic,
    // with fault-event snapshots stamped into the dump one command
    // latency after each event.
    DigestCase c(faultConfig(512));
    const std::string d = c.dump();
    ASSERT_NE(d.find("# fault event @"), std::string::npos);
    EXPECT_DIGEST(d, "345b9bba81404ba3");
}

TEST(SerialDumpDigest, OnlineHdc)
{
    // Re-plans run as front events; their pin/unpin deltas take the
    // deferred command path and land one command latency after the
    // host issues them.
    SimulationConfig sim =
        webConfig(SystemKind::FOR, 64 * kKiB, 2 * kMiB);
    sim.system.hdc.policy = HdcPolicy::Online;
    sim.system.hdc.replanIntervalTicks = 20 * kMsec;
    DigestCase c(std::move(sim));
    EXPECT_DIGEST(c.dump(), "74807731953bf080");
}

TEST(SerialDumpDigest, OnlineHdcFastReplan)
{
    // A tight re-plan interval exercises the phase-change fast path
    // (quarter-interval re-arms).
    SimulationConfig sim =
        webConfig(SystemKind::Segm, 32 * kKiB, 1 * kMiB);
    sim.system.hdc.policy = HdcPolicy::Online;
    sim.system.hdc.replanIntervalTicks = 5 * kMsec;
    sim.system.hdc.churnThreshold = 0.1;
    DigestCase c(std::move(sim));
    EXPECT_DIGEST(c.dump(), "160a14794344c511");
}

TEST(SerialDumpDigest, OnlineHdcSmallPool)
{
    // A pool barely larger than the pinned sets and a small region:
    // pinned blocks fall out of the candidate pool and come back
    // mid-run, and the miss volume ages the sketch several times.
    SimulationConfig sim =
        webConfig(SystemKind::FOR, 16 * kKiB, 256 * kKiB);
    sim.system.hdc.policy = HdcPolicy::Online;
    sim.system.hdc.replanIntervalTicks = 200 * kMsec;
    sim.system.hdc.candidateBlocks = 384;
    sim.system.hdc.sketchCols = 4096;
    DigestCase c(std::move(sim));
    EXPECT_DIGEST(c.dump(), "3cd165fe9042a1e1");
}

TEST(SerialDumpDigest, OnlineHdcOddSketch)
{
    // A sketch shape no power-of-two or four-row layout covers: three
    // rows of 1000 columns, over a pool small enough that pinned
    // blocks leave it (one comes back while still pinned).
    SimulationConfig sim =
        webConfig(SystemKind::FOR, 16 * kKiB, 256 * kKiB);
    sim.system.hdc.policy = HdcPolicy::Online;
    sim.system.hdc.sketchRows = 3;
    sim.system.hdc.sketchCols = 1000;
    sim.system.hdc.candidateBlocks = 384;
    DigestCase c(std::move(sim));
    EXPECT_DIGEST(c.dump(), "79fcd5eb00a9c654");
}

TEST(SerialDumpDigest, ForReadAheadNoHdc)
{
    // FOR read-ahead with no pinned store: the fixed budget is the
    // only thing that bounds each speculative read.
    DigestCase c(webConfig(SystemKind::FOR, 64 * kKiB, 0));
    EXPECT_DIGEST(c.dump(), "d5924f0cabd6378e");
}

TEST(SerialDumpDigest, PeriodicSnapshots)
{
    // Snapshot front events read every counter before the tick's
    // simulation work runs.
    DigestCase c(webConfig(SystemKind::Segm, 16 * kKiB, 0));
    c.tweak = [](Experiment& e) { e.statsEvery(200 * kMsec); };
    const std::string d = c.dump();
    ASSERT_NE(d.find("# snapshot @"), std::string::npos);
    EXPECT_DIGEST(d, "0093ff2f3146f61e");
}

TEST(SerialDumpDigest, SnapshotsDuringFaultsAndMirroring)
{
    // Periodic snapshots layered over the fault-event snapshots of a
    // degraded mirrored run.
    DigestCase c(faultConfig(256));
    c.tweak = [](Experiment& e) { e.statsEvery(250 * kMsec); };
    const std::string d = c.dump();
    ASSERT_NE(d.find("# snapshot @"), std::string::npos);
    ASSERT_NE(d.find("# fault event @"), std::string::npos);
    EXPECT_DIGEST(d, "3c9d712e69a2eb92");
}

} // namespace
} // namespace dtsim
