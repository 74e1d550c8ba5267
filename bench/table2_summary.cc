/**
 * @file
 * Table 2: disk throughput improvements of FOR, Segm+HDC, and
 * FOR+HDC over the conventional controller (Segm), for each server at
 * its best striping unit size (Web 16 KB, proxy 64 KB, file 128 KB).
 *
 * Improvement is reported as the paper does: the reduction in total
 * I/O time, which translates directly into a throughput increase for
 * these I/O-bound servers.
 */

#include <cstdio>
#include <utility>
#include <vector>

#include "bench/bench_util.hh"
#include "core/experiment.hh"
#include "workload/server_models.hh"

using namespace dtsim;

namespace {

void
summarize(const ServerModelParams& params,
          std::uint64_t stripe_unit_bytes)
{
    SystemConfig base;
    base.streams = params.streams;
    base.stripeUnitBytes = stripe_unit_bytes;

    ServerWorkload w = makeServerWorkload(
        params, base.disks * base.disk.totalBlocks());

    StripingMap striping(base.disks,
                         base.stripeUnitBytes / base.disk.blockSize,
                         base.disk.totalBlocks());
    const std::vector<LayoutBitmap> bitmaps =
        w.image->buildBitmaps(striping);

    // The four variants run as one batch, in parallel (DTSIM_JOBS);
    // each derives its oracle HDC pin plan in Experiment::prepare().
    const std::uint64_t hdc = 2 * kMiB;
    std::vector<Experiment> batch;
    for (const auto& [kind, bytes] :
         {std::pair{SystemKind::Segm, std::uint64_t{0}},
          std::pair{SystemKind::FOR, std::uint64_t{0}},
          std::pair{SystemKind::Segm, hdc},
          std::pair{SystemKind::FOR, hdc}}) {
        Experiment e(base);
        e.config().system.hdc.budgetBytesPerDisk = bytes;
        e.kind(kind).replay(w.trace).bitmaps(bitmaps);
        batch.push_back(std::move(e));
    }
    const std::vector<RunResult> runs = Experiment::runAll(batch);
    const RunResult& segm = runs[0];
    const RunResult& forr = runs[1];
    const RunResult& segm_hdc = runs[2];
    const RunResult& for_hdc = runs[3];

    auto improvement = [&](const RunResult& r) {
        return 1.0 - static_cast<double>(r.ioTime) /
                         static_cast<double>(segm.ioTime);
    };

    bench::printRow(
        {params.name,
         std::to_string(stripe_unit_bytes / kKiB) + " KB",
         bench::fmtPct(improvement(forr), 0),
         bench::fmtPct(improvement(segm_hdc), 0),
         bench::fmtPct(improvement(for_hdc), 0),
         bench::fmtPct(segm_hdc.hdcHitRate, 1),
         bench::fmtPct(segm.cacheHitRate, 1),
         bench::fmtPct(forr.cacheHitRate, 1)},
        {10, 12, 10, 12, 10, 10, 10, 10});
}

} // namespace

int
main()
{
    bench::printHeader(
        "Table 2: disk throughput improvements at best striping unit");
    std::printf("(paper: Web 34%%/24%%/47%%, proxy 17%%/18%%/33%%, "
                "file 12%%/10%%/21%%)\n\n");

    bench::printRow({"server", "unit", "FOR", "Segm+HDC", "FOR+HDC",
                     "hdcHit", "hitSegm", "hitFOR"},
                    {10, 12, 10, 12, 10, 10, 10, 10});

    const double scale = bench::workloadScale();
    summarize(webServerParams(scale), 16 * kKiB);
    summarize(proxyServerParams(scale), 64 * kKiB);
    summarize(fileServerParams(scale), 128 * kKiB);
    return 0;
}
