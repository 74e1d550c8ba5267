/** @file Tests for the statistics report printer. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/report.hh"
#include "experiment_replay.hh"
#include "workload/synthetic.hh"

namespace dtsim {
namespace {

TEST(Report, ContainsKeyLines)
{
    SystemConfig cfg;
    cfg.disks = 2;
    cfg.streams = 8;
    cfg.kind = SystemKind::Segm;

    SyntheticParams sp;
    sp.numFiles = 1000;
    sp.numRequests = 100;
    const SyntheticWorkload w =
        makeSynthetic(sp, cfg.disks * cfg.disk.totalBlocks());
    const RunResult r = test::replayTrace(cfg, w.trace);

    std::ostringstream os;
    printReport(os, cfg, r);
    const std::string out = os.str();

    EXPECT_NE(out.find("system: Segm"), std::string::npos);
    EXPECT_NE(out.find("sim.io_time_ms"), std::string::npos);
    EXPECT_NE(out.find("sim.cache.hit_rate"), std::string::npos);
    EXPECT_NE(out.find("sim.media.accesses"), std::string::npos);
    EXPECT_NE(out.find("# total I/O time"), std::string::npos);
}

TEST(Report, ValuesMatchResult)
{
    SystemConfig cfg;
    cfg.disks = 2;
    cfg.streams = 4;

    SyntheticParams sp;
    sp.numFiles = 500;
    sp.numRequests = 50;
    const SyntheticWorkload w =
        makeSynthetic(sp, cfg.disks * cfg.disk.totalBlocks());
    const RunResult r = test::replayTrace(cfg, w.trace);

    std::ostringstream os;
    printReport(os, cfg, r);
    const std::string out = os.str();

    // The requests line carries the exact count.
    const std::string needle =
        "sim.requests " + std::to_string(r.requests);
    EXPECT_NE(out.find(needle), std::string::npos) << out;
}

TEST(Report, RuntimeLineTimesPreparationPhases)
{
    SimulationConfig sim;
    sim.workload = WorkloadKind::Web;
    sim.scale = 0.01;
    sim.system.kind = SystemKind::FOR;
    sim.system.disks = 4;
    sim.system.hdc.budgetBytesPerDisk = 2 * kMiB;

    std::ostringstream dump;
    Experiment built(sim);
    built.statsTo(StatsSink::stream(dump));
    const RunResult r = built.run();
    EXPECT_GT(r.prep.genSeconds, 0.0);
    EXPECT_GT(r.prep.bitmapsSeconds, 0.0);
    EXPECT_GT(r.prep.planSeconds, 0.0);

    const std::string text = dump.str();
    const std::size_t at = text.find("# runtime:");
    ASSERT_NE(at, std::string::npos);
    const std::string line = text.substr(at, text.find('\n', at) - at);
    for (const char* field : {" replay_ms=", " gen_ms=", " bitmaps_ms=",
                              " plan_ms=", " replan_ms=0 ", " total_ms="})
        EXPECT_NE(line.find(field), std::string::npos) << line;
    EXPECT_EQ(line.find(" wall_ms="), std::string::npos) << line;

    // total_ms covers the preparation phases and the replay; the
    // result's total also covers writing the dump.
    auto field_ms = [&](const char* name) {
        const std::size_t f = line.find(name);
        EXPECT_NE(f, std::string::npos) << line;
        return std::stod(line.substr(f + std::string(name).size()));
    };
    // (The line prints 6 significant digits.)
    const double total_ms = field_ms(" total_ms=");
    const double parts_ms =
        (r.prep.seconds() + r.wallSeconds) * 1.0e3;
    EXPECT_GE(total_ms * (1 + 1e-5), parts_ms) << line;
    EXPECT_GE(r.totalSeconds * 1.0e3 * (1 + 1e-5), total_ms) << line;
    // No online policy ran, so nothing re-planned.
    EXPECT_EQ(r.replanSeconds, 0.0);

    // The process's high-water mark covers at least the generated
    // trace the run replayed.
    const double trace_mb = static_cast<double>(built.trace().size() *
                                                sizeof(TraceRecord)) /
                            (1024.0 * 1024.0);
    EXPECT_GT(r.processPeakRssMb, trace_mb);
    const std::size_t f = line.find(" process_peak_rss_mb=");
    ASSERT_NE(f, std::string::npos) << line;
    EXPECT_GT(std::stod(line.substr(f + 21)), trace_mb) << line;

    // Replaying a caller-supplied trace generates nothing.
    sim.system.kind = SystemKind::Segm;
    sim.system.hdc.budgetBytesPerDisk = 0;
    Experiment replay(sim);
    replay.replay(built.trace());
    const RunResult rr = replay.run();
    EXPECT_EQ(rr.prep.genSeconds, 0.0);
    EXPECT_EQ(rr.prep.bitmapsSeconds, 0.0);
    EXPECT_EQ(rr.prep.planSeconds, 0.0);
}

TEST(Report, RuntimeLineHasExactlyItsFields)
{
    // Disk-side host actions run inline, so the kernel fires no
    // end-of-tick flushes and the runtime line has no field for them:
    // its keys are exactly these, in this order.
    SimulationConfig sim;
    sim.workload = WorkloadKind::Web;
    sim.scale = 0.01;
    sim.system.disks = 4;

    std::ostringstream dump;
    Experiment e(sim);
    e.statsTo(StatsSink::stream(dump));
    const RunResult r = e.run();

    const std::string text = dump.str();
    const std::size_t at = text.find("# runtime:");
    ASSERT_NE(at, std::string::npos);
    std::istringstream line(text.substr(at, text.find('\n', at) - at));
    std::vector<std::string> keys;
    std::string word;
    std::string events;
    while (line >> word) {
        const std::size_t eq = word.find('=');
        if (eq == std::string::npos)
            continue;
        keys.push_back(word.substr(0, eq));
        if (keys.back() == "events")
            events = word.substr(eq + 1);
    }
    EXPECT_EQ(keys, (std::vector<std::string>{
                        "events", "replay_ms", "replan_ms", "gen_ms",
                        "bitmaps_ms", "plan_ms", "total_ms",
                        "events_per_sec", "process_peak_rss_mb"}));
    EXPECT_EQ(events, std::to_string(r.eventsFired));
}

TEST(Report, RuntimeLineTimesOnlineReplans)
{
    // replan_ms= is the host time inside the online policy's re-plans,
    // a part of the replay's wall time.
    SimulationConfig sim;
    sim.workload = WorkloadKind::Web;
    sim.scale = 0.01;
    sim.system.kind = SystemKind::FOR;
    sim.system.disks = 4;
    sim.system.hdc.budgetBytesPerDisk = 2 * kMiB;
    sim.system.hdc.policy = HdcPolicy::Online;
    sim.system.hdc.replanIntervalTicks = 20 * kMsec;

    std::ostringstream dump;
    Experiment e(sim);
    e.statsTo(StatsSink::stream(dump));
    const RunResult r = e.run();
    EXPECT_GT(r.onlineReplans, 0u);
    EXPECT_GT(r.replanSeconds, 0.0);
    EXPECT_LE(r.replanSeconds, r.wallSeconds);

    const std::string text = dump.str();
    const std::size_t at = text.find("# runtime:");
    ASSERT_NE(at, std::string::npos);
    const std::string line = text.substr(at, text.find('\n', at) - at);
    const std::size_t f = line.find(" replan_ms=");
    ASSERT_NE(f, std::string::npos) << line;
    EXPECT_GT(std::stod(line.substr(f + 11)), 0.0) << line;
}

} // namespace
} // namespace dtsim
