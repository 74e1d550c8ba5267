#include "core/experiment.hh"

#include <atomic>
#include <chrono>
#include <exception>
#include <sstream>
#include <thread>
#include <utility>

#include "array/striping.hh"
#include "core/run_impl.hh"
#include "hdc/hdc_planner.hh"
#include "sim/host_threads.hh"
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

/**
 * Call `fn(i)` for every i in [0, n) on a pool of `threads` workers
 * (0 = hostThreads(), capped at n; one thread or fewer runs inline on
 * the calling thread). Workers claim indices off a shared counter.
 * If calls throw, the first exception in index order is rethrown
 * after every worker has stopped.
 */
template <typename Fn>
void
runEach(std::size_t n, unsigned threads, const Fn& fn)
{
    if (n == 0)
        return;
    if (threads == 0)
        threads = hostThreads();
    if (threads > n)
        threads = static_cast<unsigned>(n);

    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(worker);
        for (std::thread& t : pool)
            t.join();
    }

    for (const std::exception_ptr& e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
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
        resolveStreams(cfg_, &workload_);
    } else {
        resolveStreams(cfg_, nullptr);
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

RunResult
Experiment::runPrepared() const
{
    const std::vector<LayoutBitmap>& bm =
        extBitmaps_ ? *extBitmaps_ : ownBitmaps_;
    const std::vector<ArrayBlock>& p = extPins_ ? *extPins_ : ownPins_;
    // The fs-stats pointer is resolved here so opts_ never holds a
    // pointer into this Experiment (which would dangle on move).
    RunOptions opts = opts_;
    if (!opts.fsStats && workload_.hasFsStats)
        opts.fsStats = &workload_.fsStats;
    return runTrace(cfg_.system, theTrace(), opts,
                    bm.empty() ? nullptr : &bm,
                    p.empty() ? nullptr : &p);
}

RunResult
Experiment::run()
{
    prepare();
    return runPrepared();
}

std::vector<RunResult>
Experiment::runAll(std::vector<Experiment>& batch, unsigned threads)
{
    // Prepare every experiment on the calling thread first; the
    // workers then only read their experiment's inputs and write its
    // own result slot, so results match running each one alone.
    for (Experiment& e : batch)
        e.prepare();
    std::vector<RunResult> results(batch.size());
    runEach(batch.size(), threads,
            [&](std::size_t i) { results[i] = batch[i].runPrepared(); });
    return results;
}

} // namespace dtsim
