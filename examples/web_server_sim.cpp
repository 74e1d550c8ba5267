/**
 * @file
 * Simulate the paper's Web server scenario end to end: generate a
 * Web-like file population and request stream, run it through the
 * host cache hierarchy to get the disk trace, then compare all four
 * controller designs (Segm, Segm+HDC, FOR, FOR+HDC) at the Web
 * server's best striping unit (16 KB).
 */

#include <cstdio>

#include "core/experiment.hh"
#include "hdc/hdc_planner.hh"
#include "workload/server_models.hh"

using namespace dtsim;

namespace {

RunResult
runKind(SystemKind kind, std::uint64_t hdc_bytes,
        const SystemConfig& base, const Trace& trace,
        const std::vector<LayoutBitmap>& bitmaps,
        const std::vector<ArrayBlock>& pinned)
{
    Experiment e(base);
    e.config().system.hdc.budgetBytesPerDisk = hdc_bytes;
    e.kind(kind).replay(trace).bitmaps(bitmaps);
    if (hdc_bytes > 0)
        e.pins(pinned);
    return e.run();
}

} // namespace

int
main()
{
    // A scaled-down Web workload (see workload/server_models.hh for
    // the calibration against the paper's Rutgers trace).
    ServerModelParams params = webServerParams(0.02);

    SystemConfig cfg;
    cfg.streams = params.streams;
    cfg.stripeUnitBytes = 16 * kKiB;   // Best unit per Figure 7.

    std::printf("generating web workload (%llu requests)...\n",
                static_cast<unsigned long long>(params.numRequests));
    ServerWorkload w = makeServerWorkload(
        params, cfg.disks * cfg.disk.totalBlocks());

    const TraceStats ts = computeStats(w.trace);
    std::printf("disk trace: %llu records, %.1f%% writes, "
                "%.2f blocks/record\n",
                static_cast<unsigned long long>(ts.records),
                ts.writeRecordFraction * 100.0, ts.meanRecordBlocks);

    StripingMap striping(cfg.disks,
                         cfg.stripeUnitBytes / cfg.disk.blockSize,
                         cfg.disk.totalBlocks());
    const std::vector<LayoutBitmap> bitmaps =
        w.image->buildBitmaps(striping);

    // HDC pin plan: the blocks causing the most host-cache misses.
    const std::uint64_t hdc_bytes = 2 * kMiB;
    const std::vector<ArrayBlock> pinned = selectPinnedBlocks(
        w.trace, striping, hdc_bytes / cfg.disk.blockSize);

    const RunResult segm =
        runKind(SystemKind::Segm, 0, cfg, w.trace, bitmaps, pinned);
    const RunResult segm_hdc = runKind(SystemKind::Segm, hdc_bytes,
                                       cfg, w.trace, bitmaps, pinned);
    const RunResult forr =
        runKind(SystemKind::FOR, 0, cfg, w.trace, bitmaps, pinned);
    const RunResult for_hdc = runKind(SystemKind::FOR, hdc_bytes, cfg,
                                      w.trace, bitmaps, pinned);

    auto report = [&](const char* name, const RunResult& r) {
        std::printf("%-10s %8.3f s   gain %5.1f%%   hdc-hit %5.1f%%  "
                    "util %4.1f%%\n",
                    name, toSeconds(r.ioTime),
                    (1.0 - static_cast<double>(r.ioTime) /
                               static_cast<double>(segm.ioTime)) *
                        100.0,
                    r.hdcHitRate * 100.0,
                    r.diskUtilization * 100.0);
    };
    report("Segm", segm);
    report("Segm+HDC", segm_hdc);
    report("FOR", forr);
    report("FOR+HDC", for_hdc);
    return 0;
}
