/**
 * @file
 * Host-guided device caching in detail: drives the pin_blk /
 * unpin_blk / flush_hdc command interface directly and compares two
 * host policies for the pinned region:
 *
 *   a) the paper's policy -- pin the blocks causing the most buffer
 *      cache misses (perfect knowledge), and
 *   b) a naive policy -- pin the first blocks of the hottest files.
 *
 * Also shows the write-absorption behavior: dirty pinned blocks stay
 * in the controller until flush_hdc().
 */

#include <cstdio>

#include "core/experiment.hh"
#include "hdc/hdc_planner.hh"
#include "workload/synthetic.hh"

using namespace dtsim;

int
main()
{
    SyntheticParams wp;
    wp.fileSizeBytes = 16 * kKiB;
    wp.numRequests = 10000;
    wp.zipfAlpha = 0.8;         // Strong skew: HDC-friendly.
    wp.writeProb = 0.2;

    SystemConfig cfg;
    cfg.streams = 128;
    cfg.stripeUnitBytes = 128 * kKiB;
    cfg.kind = SystemKind::FOR;
    cfg.hdc.budgetBytesPerDisk = 2 * kMiB;

    SyntheticWorkload w =
        makeSynthetic(wp, cfg.disks * cfg.disk.totalBlocks());
    StripingMap striping(cfg.disks,
                         cfg.stripeUnitBytes / cfg.disk.blockSize,
                         cfg.disk.totalBlocks());
    std::vector<LayoutBitmap> bitmaps =
        w.image->buildBitmaps(striping);

    // Policy (a): miss-count planner (the paper's).
    const std::vector<ArrayBlock> top_misses = selectPinnedBlocks(
        w.trace, striping, hdcBlocksPerDisk(cfg));

    // Policy (b): naive -- first blocks of the most popular files
    // (rank order), same budget.
    std::vector<ArrayBlock> naive;
    const std::uint64_t budget =
        hdcBlocksPerDisk(cfg) * cfg.disks;
    for (FileId f = 0; naive.size() < budget &&
                       f < w.image->fileCount();
         ++f) {
        const FileLayout fl = w.image->file(f);
        for (std::uint64_t b = 0;
             b < fl.blocks() && naive.size() < budget; ++b)
            naive.push_back(fl.blockAt(b));
    }

    SystemConfig no_hdc = cfg;
    no_hdc.hdc.budgetBytesPerDisk = 0;
    const RunResult none = Experiment(no_hdc)
                               .replay(w.trace)
                               .bitmaps(bitmaps)
                               .run();
    const RunResult planned = Experiment(cfg)
                                  .replay(w.trace)
                                  .bitmaps(bitmaps)
                                  .pins(top_misses)
                                  .run();
    const RunResult naive_run = Experiment(cfg)
                                    .replay(w.trace)
                                    .bitmaps(bitmaps)
                                    .pins(naive)
                                    .run();

    auto report = [&](const char* name, const RunResult& r) {
        std::printf("%-22s %8.3f s   hdc-hit %5.1f%%   "
                    "flush %6.1f ms\n",
                    name, toSeconds(r.ioTime), r.hdcHitRate * 100.0,
                    toMillis(r.flushTime));
    };
    report("no HDC", none);
    report("HDC: top-miss blocks", planned);
    report("HDC: naive hot files", naive_run);

    // Direct use of the command interface on a single controller.
    std::printf("\ncommand interface demo:\n");
    EventQueue eq;
    SystemConfig c1 = cfg;
    c1.kind = SystemKind::Segm;
    c1.disks = 1;
    DiskArray array(eq, c1.arrayConfig());
    DiskController& ctl = array.controller(0);

    const bool pinned_ok = ctl.pinBlock(1234);
    std::printf("pin_blk(1234)   -> %s (pinned %llu / %llu blocks)\n",
                pinned_ok ? "ok" : "failed",
                static_cast<unsigned long long>(
                    ctl.hdcPinnedBlocks()),
                static_cast<unsigned long long>(
                    ctl.hdcCapacityBlocks()));

    // A write to a pinned block is absorbed (no media access).
    IoRequest wr;
    wr.start = 1234;
    wr.count = 1;
    wr.isWrite = true;
    bool absorbed = false;
    wr.onComplete = [&](const IoRequest& r, Tick) {
        absorbed = r.served == ServiceClass::HdcHit;
    };
    ctl.submit(std::move(wr));
    eq.run();
    std::printf("write to pinned -> %s\n",
                absorbed ? "absorbed by HDC" : "went to media");

    const std::uint64_t flush_jobs = ctl.flushHdc();
    eq.run();
    std::printf("flush_hdc()     -> %llu media write(s)\n",
                static_cast<unsigned long long>(flush_jobs));

    const bool unpinned = ctl.unpinBlock(1234);
    std::printf("unpin_blk(1234) -> %s\n",
                unpinned ? "ok" : "failed");
    return 0;
}
