#include "core/sweep_driver.hh"

#include <utility>

#include "array/striping.hh"
#include "core/experiment.hh"
#include "sim/logging.hh"
#include "workload/server_models.hh"
#include "workload/synthetic.hh"

namespace dtsim {

namespace {

StripingMap
stripingOf(const SystemConfig& sys)
{
    return StripingMap(logicalDisks(sys),
                       sys.stripeUnitBytes / sys.disk.blockSize,
                       sys.disk.totalBlocks());
}

BuiltWorkload
buildWorkload(const SimulationConfig& sim)
{
    BuiltWorkload out;
    const std::uint64_t capacity = arrayCapacityBlocks(sim.system);
    if (sim.workload == WorkloadKind::Synthetic) {
        SyntheticWorkload w = makeSynthetic(sim.synthetic, capacity);
        out.trace = std::move(w.trace);
        out.image = std::move(w.image);
    } else {
        const ServerModelParams p =
            serverPreset(sim.workload, sim.scale);
        out.modelStreams = p.streams;
        ServerWorkload w = makeServerWorkload(p, capacity);
        out.trace = std::move(w.trace);
        out.image = std::move(w.image);
        out.fsStats = w.bufferCache;
        out.hasFsStats = true;
    }
    return out;
}

} // namespace

std::string
SweepCache::workloadKey(const SimulationConfig& sim)
{
    // The workload build depends on the generator parameters and the
    // target capacity; the header renderer gives a canonical, stable
    // serialization of the former.
    return renderConfigHeader(sim, {"workload.", "synthetic."}) +
           "capacity=" + std::to_string(arrayCapacityBlocks(sim.system));
}

BuiltWorkload&
SweepCache::workload(const SimulationConfig& sim)
{
    const std::string key = workloadKey(sim);
    auto it = workloads_.find(key);
    if (it == workloads_.end()) {
        it = workloads_
                 .emplace(key, std::make_unique<BuiltWorkload>(
                                   buildWorkload(sim)))
                 .first;
    }
    return *it->second;
}

const std::vector<LayoutBitmap>&
SweepCache::bitmaps(const SimulationConfig& sim)
{
    const SystemConfig& sys = sim.system;
    const std::string key =
        workloadKey(sim) +
        "|disks=" + std::to_string(logicalDisks(sys)) +
        "|unit=" + std::to_string(sys.stripeUnitBytes);
    auto it = bitmaps_.find(key);
    if (it == bitmaps_.end()) {
        BuiltWorkload& w = workload(sim);
        auto built = std::make_unique<std::vector<LayoutBitmap>>();
        if (w.image)
            *built = w.image->buildBitmaps(stripingOf(sys));
        it = bitmaps_.emplace(key, std::move(built)).first;
    }
    return *it->second;
}

const std::vector<ArrayBlock>&
SweepCache::pins(const SimulationConfig& sim)
{
    const SystemConfig& sys = sim.system;
    const std::string key =
        workloadKey(sim) +
        "|disks=" + std::to_string(logicalDisks(sys)) +
        "|unit=" + std::to_string(sys.stripeUnitBytes) + "|hdcblk=" +
        std::to_string(hdcBlocksPerDisk(sys));
    auto it = pins_.find(key);
    if (it == pins_.end()) {
        BuiltWorkload& w = workload(sim);
        if (!w.ranking)
            w.ranking = std::make_unique<MissRanking>(w.trace);
        auto built = std::make_unique<std::vector<ArrayBlock>>(
            w.ranking->select(stripingOf(sys), hdcBlocksPerDisk(sys)));
        it = pins_.emplace(key, std::move(built)).first;
    }
    return *it->second;
}

const std::vector<ArrayBlock>&
SweepCache::pins(const SystemConfig& sys, const Trace& trace)
{
    tracePins_.push_back(std::make_unique<std::vector<ArrayBlock>>(
        MissRanking(trace).select(stripingOf(sys),
                                  hdcBlocksPerDisk(sys))));
    return *tracePins_.back();
}

void
SweepCache::dropRankings()
{
    for (auto& [key, w] : workloads_)
        w->ranking.reset();
}

std::vector<RunResult>
runSweepPoints(std::vector<SweepPoint>& points, SweepCache& cache,
               unsigned jobs)
{
    std::vector<Experiment> batch;
    std::vector<std::size_t> batch_point;
    batch.reserve(points.size());

    for (std::size_t i = 0; i < points.size(); ++i) {
        SweepPoint& p = points[i];
        if (!p.feasible) {
            warn("sweep point %zu skipped: %s", i,
                 p.whyNot.c_str());
            continue;
        }
        Experiment e(p.cfg, cache);
        e.prepare();
        p.cfg = e.config();
        batch_point.push_back(i);
        batch.push_back(std::move(e));
    }

    // Every point has its pins: no replay needs a ranking.
    cache.dropRankings();
    const std::vector<RunResult> ran =
        Experiment::runAll(batch, jobs);

    std::vector<RunResult> results(points.size());
    for (std::size_t j = 0; j < ran.size(); ++j)
        results[batch_point[j]] = ran[j];
    return results;
}

std::vector<RunResult>
runSweepPoints(std::vector<SweepPoint>& points, unsigned jobs)
{
    SweepCache cache;
    return runSweepPoints(points, cache, jobs);
}

} // namespace dtsim
