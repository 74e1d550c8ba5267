#include "bench/bench_util.hh"

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <utility>

#include "core/experiment.hh"
#include "sim/logging.hh"

namespace dtsim {
namespace bench {

double
workloadScale()
{
    if (const char* env = std::getenv("DTSIM_BENCH_SCALE")) {
        double scale = 0.0;
        std::string err;
        if (!config::parseValue(env, scale, err))
            fatal("DTSIM_BENCH_SCALE: %s", err.c_str());
        return scale;
    }
    return 0.2;
}

void
printHeader(const std::string& title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

void
printRow(const std::vector<std::string>& cells,
         const std::vector<int>& widths)
{
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const int w = i < widths.size() ? widths[i] : 12;
        std::printf("%-*s", w, cells[i].c_str());
    }
    std::printf("\n");
    std::fflush(stdout);
}

std::string
fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
fmtPct(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision, v * 100.0);
    return buf;
}

RunResult
runSystem(SystemKind kind, std::uint64_t hdc_bytes,
          const SystemConfig& base, const Trace& trace,
          const std::vector<LayoutBitmap>& bitmaps)
{
    SystemSpec spec;
    spec.kind = kind;
    spec.hdcBytes = hdc_bytes;
    spec.base = base;
    spec.trace = &trace;
    spec.bitmaps = &bitmaps;
    return runSystems({spec}).front();
}

std::vector<RunResult>
runSystems(const std::vector<SystemSpec>& specs)
{
    std::vector<Experiment> batch;
    batch.reserve(specs.size());

    for (const SystemSpec& s : specs) {
        Experiment e(s.base);
        e.config().system.hdc.budgetBytesPerDisk = s.hdcBytes;
        e.kind(s.kind).replay(*s.trace).options(s.opts);
        if (s.bitmaps)
            e.bitmaps(*s.bitmaps);
        batch.push_back(std::move(e));
    }
    // Oracle-policy pin plans are derived per Experiment during
    // prepare(); runAll() runs the batch on its thread pool.
    return Experiment::runAll(batch);
}

namespace {

/** Print the workload line that opens every figure table. */
void
printWorkloadLine(WorkloadKind workload, const Trace& trace)
{
    const TraceStats ts = computeStats(trace);
    const BlockAccessStats bs = blockAccessStats(trace);
    std::printf("workload: %s  records=%llu  blocks=%llu  "
                "writes=%.1f%%  distinct=%llu  max-block-accesses=%llu\n",
                workloadKindTokens().format(workload).c_str(),
                static_cast<unsigned long long>(ts.records),
                static_cast<unsigned long long>(ts.blocks),
                ts.writeRecordFraction * 100.0,
                static_cast<unsigned long long>(bs.distinctBlocks),
                static_cast<unsigned long long>(bs.maxBlockAccesses));
}

std::vector<SweepPoint>
expandOrDie(const SweepSpec& spec)
{
    std::string err;
    std::vector<SweepPoint> points = expandSweep(spec, err);
    if (points.empty())
        fatal("sweep expansion failed: %s", err.c_str());
    return points;
}

} // namespace

SweepSpec
stripingSweepSpec(WorkloadKind workload, double scale)
{
    SweepSpec spec;
    spec.base.workload = workload;
    spec.base.scale = scale;

    // Row-major figure layout: unit rows (slowest axis), then the
    // Segm / Segm+HDC / FOR / FOR+HDC columns.
    const std::uint64_t units_kb[] = {4, 8, 16, 32, 64, 128, 192, 256};
    SweepAxis units{"system.stripe_unit_bytes", {}};
    for (std::uint64_t kb : units_kb)
        units.values.push_back(std::to_string(kb * kKiB));
    spec.axes.push_back(std::move(units));
    spec.axes.push_back({"system.kind", {"segm", "for"}});
    spec.axes.push_back({"system.hdc_bytes_per_disk",
                         {"0", std::to_string(2 * kMiB)}});
    return spec;
}

SweepSpec
hdcSweepSpec(WorkloadKind workload, double scale,
             std::uint64_t stripe_unit_bytes)
{
    SweepSpec spec;
    spec.base.workload = workload;
    spec.base.scale = scale;
    spec.base.system.stripeUnitBytes = stripe_unit_bytes;

    const std::uint64_t sizes_kb[] = {0,    256,  512,  1024,
                                      1536, 2048, 2560, 3072};
    SweepAxis sizes{"system.hdc_bytes_per_disk", {}};
    for (std::uint64_t kb : sizes_kb)
        sizes.values.push_back(std::to_string(kb * kKiB));
    spec.axes.push_back(std::move(sizes));
    spec.axes.push_back({"system.kind", {"segm", "for"}});
    return spec;
}

void
stripingSweep(WorkloadKind workload, double scale,
              const std::string& figure_title)
{
    printHeader(figure_title);

    const SweepSpec spec = stripingSweepSpec(workload, scale);
    std::vector<SweepPoint> points = expandOrDie(spec);

    // The cache builds the (shared) workload once for the whole grid;
    // warm it first so the workload line prints before the runs.
    SweepCache cache;
    printWorkloadLine(workload, cache.workload(spec.base).trace);

    const std::vector<RunResult> results =
        runSweepPoints(points, cache);

    const std::vector<int> widths{12, 12, 12, 12, 12};
    printRow({"unit(KB)", "Segm", "Segm+HDC", "FOR", "FOR+HDC"},
             widths);
    for (std::size_t i = 0; i + 3 < results.size(); i += 4) {
        const std::uint64_t unit =
            points[i].cfg.system.stripeUnitBytes;
        printRow({std::to_string(unit / kKiB),
                  fmt(toSeconds(results[i + 0].ioTime)),
                  fmt(toSeconds(results[i + 1].ioTime)),
                  fmt(toSeconds(results[i + 2].ioTime)),
                  fmt(toSeconds(results[i + 3].ioTime))},
                 widths);
    }
}

void
hdcSweep(WorkloadKind workload, double scale,
         std::uint64_t stripe_unit_bytes,
         const std::string& figure_title)
{
    printHeader(figure_title);

    const SweepSpec spec =
        hdcSweepSpec(workload, scale, stripe_unit_bytes);
    std::vector<SweepPoint> points = expandOrDie(spec);

    SweepCache cache;
    const std::vector<RunResult> results =
        runSweepPoints(points, cache);

    const std::vector<int> widths{12, 14, 14, 14, 14};
    printRow({"HDC(KB)", "Segm+HDC(s)", "FOR+HDC(s)", "hitSegm",
              "hitFOR"},
             widths);
    for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
        const RunResult& segm = results[i];
        std::string for_time = "-";
        std::string for_hit = "-";
        if (points[i + 1].feasible) {
            for_time = fmt(toSeconds(results[i + 1].ioTime));
            for_hit = fmtPct(results[i + 1].hdcHitRate);
        }
        printRow({std::to_string(
                      points[i].cfg.system.hdc.budgetBytesPerDisk / kKiB),
                  fmt(toSeconds(segm.ioTime)), for_time,
                  fmtPct(segm.hdcHitRate), for_hit},
                 widths);
    }
}

} // namespace bench
} // namespace dtsim
