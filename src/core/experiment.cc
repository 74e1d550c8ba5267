#include "core/experiment.hh"

#include <atomic>
#include <chrono>
#include <exception>
#include <sstream>
#include <thread>
#include <utility>

#include "core/run_impl.hh"
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
 * Resolve system.streams = 0 to the workload's own concurrency: the
 * server model's stream count when `built` is a server workload,
 * else SystemConfig's default (synthetic workloads, and replayed
 * traces, which pass no `built`). An explicit count is left alone.
 * Applied before running so the effective-config dump records the
 * concurrency that actually ran.
 */
void
resolveStreams(SimulationConfig& sim, const BuiltWorkload* built)
{
    if (sim.system.streams == 0)
        sim.system.streams = built && built->modelStreams > 0
                                 ? built->modelStreams
                                 : SystemConfig{}.streams;
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

Experiment::Experiment(SimulationConfig sim)
    : cfg_(std::move(sim)), ownCache_(std::make_unique<SweepCache>())
{
    cache_ = ownCache_.get();
}

Experiment::Experiment(SimulationConfig sim, SweepCache& cache)
    : cfg_(std::move(sim)), cache_(&cache)
{
}

Experiment&
Experiment::replay(const Trace& t)
{
    trace_ = &t;
    return *this;
}

Experiment&
Experiment::bitmaps(const std::vector<LayoutBitmap>& bm)
{
    bitmaps_ = &bm;
    return *this;
}

Experiment&
Experiment::pins(const std::vector<ArrayBlock>& p)
{
    pins_ = &p;
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

void
Experiment::prepare()
{
    if (prepared_)
        return;
    prepared_ = true;

    SweepCache& cache = *cache_;
    const bool replaying = trace_ != nullptr;
    if (!replaying) {
        const std::vector<std::string> errs = validateConfig(cfg_);
        if (!errs.empty()) {
            std::ostringstream os;
            for (const std::string& e : errs)
                os << "\n  " << e;
            fatal("invalid configuration:%s", os.str().c_str());
        }
        const Clock::time_point t0 = Clock::now();
        const BuiltWorkload& w = cache.workload(cfg_);
        opts_.prep.genSeconds = secondsSince(t0);
        resolveStreams(cfg_, &w);
        trace_ = &w.trace;
        if (!opts_.fsStats && w.hasFsStats)
            opts_.fsStats = &w.fsStats;
    } else {
        resolveStreams(cfg_, nullptr);
        // A caller's trace meets loadTrace()'s record checks here, not
        // mid-replay inside the array.
        const std::uint64_t capacity = arrayAddressableBlocks(cfg_.system);
        for (std::size_t i = 0; i < trace_->size(); ++i) {
            const TraceRecord& r = (*trace_)[i];
            const std::string why =
                traceRecordError(r.start, r.count, capacity);
            if (!why.empty())
                fatal("Experiment::replay: trace record %zu: %s", i,
                      why.c_str());
        }
    }

    const SystemConfig& sys = cfg_.system;
    if (!bitmaps_ && !replaying && sys.kind == SystemKind::FOR) {
        const Clock::time_point t0 = Clock::now();
        bitmaps_ = &cache.bitmaps(cfg_);
        opts_.prep.bitmapsSeconds = secondsSince(t0);
    }
    if (!pins_ && sys.hdc.enabled() &&
        sys.hdc.policy == HdcPolicy::Oracle) {
        const Clock::time_point t0 = Clock::now();
        pins_ = replaying ? &cache.pins(sys, *trace_) : &cache.pins(cfg_);
        opts_.prep.planSeconds = secondsSince(t0);
    }
    // A lone run's pins are planned: free its ranking before replay.
    if (ownCache_)
        ownCache_->dropRankings();

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

    // Every output begins with the effective-config header. Built
    // mode knows the full configuration; a replayed trace carries no
    // workload, so its header covers the groups that shaped the run.
    if (opts_.configHeader.empty() &&
        (opts_.wantsStats() || !opts_.tracePath.empty())) {
        if (!replaying) {
            opts_.configHeader = renderConfigHeader(cfg_);
        } else {
            SimulationConfig shown = cfg_;
            shown.output.traceCfg = opts_.trace;
            opts_.configHeader = renderConfigHeader(
                shown, {"system.", "disk.", "hdc.", "trace.", "fault."});
        }
    }
}

const Trace&
Experiment::trace()
{
    prepare();
    return *trace_;
}

RunResult
Experiment::runPrepared() const
{
    const bool has_bitmaps = bitmaps_ && !bitmaps_->empty();
    const bool has_pins = pins_ && !pins_->empty();
    return runTrace(cfg_.system, *trace_, opts_,
                    has_bitmaps ? bitmaps_ : nullptr,
                    has_pins ? pins_ : nullptr);
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
