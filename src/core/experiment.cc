#include "core/experiment.hh"

#include <chrono>
#include <sstream>
#include <utility>

#include "array/striping.hh"
#include "core/run_impl.hh"
#include "hdc/hdc_planner.hh"
#include "sim/logging.hh"
#include "workload/trace.hh"

namespace dtsim {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

Experiment::Experiment(SimulationConfig sim) : cfg_(std::move(sim)) {}

Experiment::Experiment(const SystemConfig& sys)
{
    cfg_.system = sys;
}

Experiment&
Experiment::kind(SystemKind k)
{
    cfg_.system.kind = k;
    return *this;
}

Experiment&
Experiment::replay(const Trace& t)
{
    extTrace_ = &t;
    return *this;
}

Experiment&
Experiment::bitmaps(const std::vector<LayoutBitmap>& bm)
{
    extBitmaps_ = &bm;
    return *this;
}

Experiment&
Experiment::pins(const std::vector<ArrayBlock>& p)
{
    extPins_ = &p;
    return *this;
}

Experiment&
Experiment::fsStats(const BufferCacheStats& stats)
{
    opts_.fsStats = &stats;
    return *this;
}

Experiment&
Experiment::statsTo(StatsSink sink)
{
    opts_.stats = std::move(sink);
    return *this;
}

Experiment&
Experiment::traceTo(std::string path)
{
    opts_.tracePath = std::move(path);
    return *this;
}

Experiment&
Experiment::streamTo(std::string path, Tick interval)
{
    opts_.statsStream.path = std::move(path);
    opts_.statsStream.intervalTicks = interval;
    return *this;
}

Experiment&
Experiment::statsEvery(Tick interval)
{
    opts_.statsIntervalTicks = interval;
    return *this;
}

Experiment&
Experiment::header(std::string text)
{
    opts_.configHeader = std::move(text);
    return *this;
}

Experiment&
Experiment::options(const RunOptions& opts)
{
    opts_ = opts;
    return *this;
}

const Trace&
Experiment::theTrace() const
{
    return extTrace_ ? *extTrace_ : workload_.trace;
}

StripingMap
Experiment::striping() const
{
    const SystemConfig& sys = cfg_.system;
    return StripingMap(logicalDisks(sys),
                       sys.stripeUnitBytes / sys.disk.blockSize,
                       sys.disk.totalBlocks());
}

void
Experiment::prepare()
{
    if (prepared_)
        return;
    prepared_ = true;

    if (!extTrace_) {
        applyModelStreams(cfg_);
        const std::vector<std::string> errs = validateConfig(cfg_);
        if (!errs.empty()) {
            std::ostringstream os;
            for (const std::string& e : errs)
                os << "\n  " << e;
            fatal("invalid configuration:%s", os.str().c_str());
        }
        const Clock::time_point t0 = Clock::now();
        workload_ = buildWorkload(cfg_);
        opts_.prep.genSeconds = secondsSince(t0);
    } else {
        // A caller's trace meets loadTrace()'s record checks here, not
        // mid-replay inside the array.
        const std::uint64_t capacity = arrayAddressableBlocks(cfg_.system);
        for (std::size_t i = 0; i < extTrace_->size(); ++i) {
            const TraceRecord& r = (*extTrace_)[i];
            const std::string why =
                traceRecordError(r.start, r.count, capacity);
            if (!why.empty())
                fatal("Experiment::replay: trace record %zu: %s", i,
                      why.c_str());
        }
    }

    const SystemConfig& sys = cfg_.system;
    if (!extBitmaps_ && sys.kind == SystemKind::FOR &&
        workload_.image) {
        const Clock::time_point t0 = Clock::now();
        ownBitmaps_ = workload_.image->buildBitmaps(striping());
        opts_.prep.bitmapsSeconds = secondsSince(t0);
    }
    if (!extPins_ && sys.hdc.enabled() &&
        sys.hdc.policy == HdcPolicy::Oracle) {
        const Clock::time_point t0 = Clock::now();
        ownPins_ = selectPinnedBlocks(theTrace(), striping(),
                                      hdcBlocksPerDisk(sys));
        opts_.prep.planSeconds = secondsSince(t0);
    }

    // Output destinations the caller did not set fluently come from
    // the configuration's run.* group, like the CLI always honoured.
    if (!opts_.stats.enabled() && !cfg_.output.statsOut.empty())
        opts_.stats = StatsSink::file(cfg_.output.statsOut);
    if (opts_.tracePath.empty())
        opts_.tracePath = cfg_.output.trace;
    if (opts_.trace == TraceConfig{})
        opts_.trace = cfg_.output.traceCfg;
    if (opts_.statsStream == StatsStreamConfig{})
        opts_.statsStream = cfg_.output.stream;
    if (opts_.statsIntervalTicks == 0)
        opts_.statsIntervalTicks = cfg_.output.statsIntervalTicks;

    // Built mode knows the full configuration, so outputs get the
    // complete self-describing header; replay mode leaves synthesis
    // of a system/disk-level one to runTrace().
    if (opts_.configHeader.empty() && !extTrace_ &&
        (opts_.wantsStats() || !opts_.tracePath.empty()))
        opts_.configHeader = renderConfigHeader(cfg_);
}

const Trace&
Experiment::trace()
{
    prepare();
    return theTrace();
}

SweepJob
Experiment::job()
{
    SweepJob j;
    j.cfg = cfg_.system;
    j.trace = &theTrace();
    const std::vector<LayoutBitmap>& bm =
        extBitmaps_ ? *extBitmaps_ : ownBitmaps_;
    if (!bm.empty())
        j.bitmaps = &bm;
    const std::vector<ArrayBlock>& p = extPins_ ? *extPins_ : ownPins_;
    if (!p.empty())
        j.pinned = &p;
    j.opts = opts_;
    // The fs-stats pointer is resolved late so opts_ never holds a
    // pointer into this Experiment (which would dangle on move).
    if (!j.opts.fsStats && workload_.hasFsStats)
        j.opts.fsStats = &workload_.fsStats;
    return j;
}

RunResult
Experiment::run()
{
    prepare();
    const SweepJob j = job();
    return runTrace(j.cfg, *j.trace, j.opts, j.bitmaps, j.pinned);
}

std::vector<RunResult>
Experiment::runAll(std::vector<Experiment>& batch, unsigned threads)
{
    // Prepare first, build jobs second: jobs hold pointers into the
    // Experiments, which must not move once referenced.
    std::vector<SweepJob> jobs;
    jobs.reserve(batch.size());
    for (Experiment& e : batch)
        e.prepare();
    for (Experiment& e : batch)
        jobs.push_back(e.job());
    return runSweep(jobs, threads);
}

} // namespace dtsim
