/**
 * @file
 * Simulator validation in the spirit of Section 6.1: the paper ran
 * read-only and write-only micro-benchmarks (small files at random
 * disk locations) on the real IBM drive and found the simulator
 * within 8% (reads) and 3% (writes). We have no hardware, so the
 * same micro-benchmarks are validated against the analytic
 * service-time model T(r) = seek + rotation + r*S/xfer_rate with the
 * drive's average seek and rotational latency.
 */

#include <cstdio>

#include "analytic/models.hh"
#include "bench/bench_util.hh"
#include "core/experiment.hh"
#include "sim/rng.hh"
#include "workload/trace.hh"

using namespace dtsim;

namespace {

/** Random small accesses on a single disk, no read-ahead benefit. */
double
measuredMsPerAccess(bool writes, std::uint64_t blocks_per_access)
{
    SystemConfig cfg;
    cfg.disks = 1;
    cfg.streams = 1;              // Serial accesses, like the real
    cfg.kind = SystemKind::NoRA;  // micro-benchmark loop.
    cfg.stripeUnitBytes = 128 * kKiB;

    Rng rng(12345);
    Trace trace;
    const std::uint64_t n = 2000;
    for (std::uint64_t i = 0; i < n; ++i) {
        TraceRecord rec;
        rec.start = rng.below(cfg.disk.totalBlocks() -
                              blocks_per_access);
        rec.count = static_cast<std::uint32_t>(blocks_per_access);
        rec.isWrite = writes;
        rec.job = static_cast<std::uint32_t>(i);
        trace.push_back(rec);
    }

    std::vector<LayoutBitmap> bitmaps;
    bitmaps.emplace_back(cfg.disk.totalBlocks());
    SimulationConfig sim;
    sim.system = cfg;
    Experiment e(sim);
    e.replay(trace).bitmaps(bitmaps);
    const RunResult r = e.run();
    return toMillis(r.ioTime) / static_cast<double>(n);
}

} // namespace

int
main()
{
    bench::printHeader(
        "Validation: micro-benchmarks vs the analytic model "
        "(Section 6.1)");

    DiskParams p;
    const std::vector<int> widths{10, 10, 14, 14, 10};
    bench::printRow({"op", "size", "simulated", "analytic",
                     "error"},
                    widths);

    for (const bool writes : {false, true}) {
        for (const std::uint64_t blocks : {1ull, 4ull, 16ull}) {
            const double sim = measuredMsPerAccess(writes, blocks);
            // The model: average seek + average rotation + transfer
            // (+ settle for writes), plus controller/bus overheads.
            double model = analytic::requestTimeMs(p, blocks);
            if (writes)
                model += toMillis(p.writeSettle);
            model += toMillis(p.requestOverhead);
            model += blocks * 4096.0 / 160.0e6 * 1e3;   // Bus.

            const double err = (sim - model) / model;
            bench::printRow(
                {writes ? "write" : "read",
                 std::to_string(blocks * 4) + "KB",
                 bench::fmt(sim, 3) + " ms",
                 bench::fmt(model, 3) + " ms",
                 bench::fmtPct(err)},
                widths);
        }
    }
    std::printf("\npaper: simulation within 8%% (reads) and 3%% "
                "(writes) of the real drive.\n");
    return 0;
}
