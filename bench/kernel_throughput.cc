/**
 * @file
 * Tracked kernel/harness performance benchmark. Measures
 *
 *  1. event-kernel throughput (events/sec) of the current EventQueue
 *     against an embedded copy of the seed kernel (std::priority_queue
 *     of std::function entries plus two unordered_sets), and
 *  2. wall-clock time of a striping sweep run serially vs through the
 *     parallel sweep runner, and
 *  3. events/sec of one full serial simulation,
 *
 * and writes the trajectories to BENCH_kernel.json in the working
 * directory (override with DTSIM_BENCH_OUT). EXPERIMENTS.md explains
 * how the numbers are produced and tracked across PRs.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <queue>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.hh"
#include "core/experiment.hh"
#include "core/sweep.hh"
#include "sim/event_queue.hh"
#include "sim/host_threads.hh"
#include "sim/logging.hh"
#include "workload/synthetic.hh"

using namespace dtsim;

namespace {

/**
 * The seed event kernel, verbatim: heap of callback-carrying entries
 * ordered by (tick, id), with pending/cancelled hash sets. Kept here
 * as the fixed baseline the events/sec trajectory is measured
 * against.
 */
class LegacyEventQueue
{
  public:
    using Callback = std::function<void()>;
    using EventId = std::uint64_t;

    Tick now() const { return now_; }

    EventId
    scheduleAt(Tick when, Callback cb)
    {
        const EventId id = nextId_++;
        heap_.push(Entry{when, id, std::move(cb)});
        pending_.insert(id);
        return id;
    }

    EventId
    scheduleAfter(Tick delay, Callback cb)
    {
        return scheduleAt(now_ + delay, std::move(cb));
    }

    bool
    cancel(EventId id)
    {
        auto it = pending_.find(id);
        if (it == pending_.end())
            return false;
        pending_.erase(it);
        cancelled_.insert(id);
        return true;
    }

    bool
    step()
    {
        while (!heap_.empty() && cancelled_.count(heap_.top().id)) {
            cancelled_.erase(heap_.top().id);
            heap_.pop();
        }
        if (heap_.empty())
            return false;
        Entry& top = const_cast<Entry&>(heap_.top());
        now_ = top.when;
        Callback cb = std::move(top.cb);
        pending_.erase(top.id);
        heap_.pop();
        cb();
        return true;
    }

    void
    run()
    {
        while (step()) {
        }
    }

  private:
    struct Entry
    {
        Tick when;
        EventId id;
        Callback cb;
    };

    struct Later
    {
        bool
        operator()(const Entry& a, const Entry& b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.id > b.id;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
    std::unordered_set<EventId> pending_;
    std::unordered_set<EventId> cancelled_;
    Tick now_ = 0;
    EventId nextId_ = 1;
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Event-loop workload shared by both kernels: a steady population of
 * self-rescheduling events with staggered delays, plus a
 * schedule-then-cancel on every fourth firing to exercise the
 * cancellation path the controllers use for timeouts.
 */
template <typename Queue>
double
measureEventsPerSec(std::uint64_t total_events)
{
    Queue q;
    std::uint64_t fired = 0;
    constexpr int kPopulation = 1024;

    std::function<void(int)> tick = [&](int lane) {
        ++fired;
        if (fired + kPopulation > total_events)
            return;
        q.scheduleAfter(
            static_cast<Tick>(1 + (lane * 7919 + fired) % 1000),
            [&tick, lane] { tick(lane); });
        if (fired % 4 == 0) {
            const auto id = q.scheduleAfter(
                2000 + fired % 128, [] {});
            q.cancel(id);
        }
    };

    const auto start = std::chrono::steady_clock::now();
    for (int lane = 0; lane < kPopulation; ++lane)
        q.scheduleAfter(static_cast<Tick>(lane % 97),
                        [&tick, lane] { tick(lane); });
    q.run();
    const double secs = secondsSince(start);
    return static_cast<double>(fired) / secs;
}

/** The striping sweep timed serially and in parallel. */
std::vector<bench::SystemSpec>
buildSweepSpecs(const SyntheticWorkload& w,
                std::vector<std::vector<LayoutBitmap>>& bitmaps)
{
    const std::uint64_t units_kb[] = {4, 16, 64, 128, 192, 256};
    const std::size_t n_units = std::size(units_kb);

    bitmaps.resize(n_units);
    std::vector<bench::SystemSpec> specs;
    for (std::size_t i = 0; i < n_units; ++i) {
        SystemConfig cfg;
        cfg.streams = 128;
        cfg.workers = 64;
        cfg.stripeUnitBytes = units_kb[i] * kKiB;

        StripingMap striping(cfg.disks,
                             cfg.stripeUnitBytes / cfg.disk.blockSize,
                             cfg.disk.totalBlocks());
        bitmaps[i] = w.image->buildBitmaps(striping);

        for (SystemKind kind : {SystemKind::Segm, SystemKind::FOR}) {
            bench::SystemSpec spec;
            spec.kind = kind;
            spec.base = cfg;
            spec.trace = &w.trace;
            spec.bitmaps = &bitmaps[i];
            specs.push_back(std::move(spec));
        }
    }
    return specs;
}

std::vector<SweepJob>
specsToJobs(const std::vector<bench::SystemSpec>& specs)
{
    std::vector<SweepJob> jobs(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        jobs[i].cfg = specs[i].base;
        jobs[i].cfg.kind = specs[i].kind;
        jobs[i].trace = specs[i].trace;
        jobs[i].bitmaps = specs[i].bitmaps;
    }
    return jobs;
}

} // namespace

int
main()
{
    bench::printHeader("Kernel & sweep throughput");

    // --- 1. Event-kernel events/sec, new vs seed baseline. ---
    const std::uint64_t total_events = 4'000'000;
    // Warm up allocators/caches so both kernels are measured steady.
    measureEventsPerSec<EventQueue>(total_events / 8);
    measureEventsPerSec<LegacyEventQueue>(total_events / 8);

    const double eps = measureEventsPerSec<EventQueue>(total_events);
    const double eps_seed =
        measureEventsPerSec<LegacyEventQueue>(total_events);
    const double kernel_speedup = eps / eps_seed;

    std::printf("events/sec (current kernel): %.3e\n", eps);
    std::printf("events/sec (seed kernel):    %.3e\n", eps_seed);
    std::printf("kernel speedup:              %.2fx\n",
                kernel_speedup);

    // --- 2. Striping sweep, serial vs parallel wall time. ---
    SyntheticParams sp;
    sp.fileSizeBytes = 16 * kKiB;
    sp.numRequests = 20000;
    sp.zipfAlpha = 0.6;

    SystemConfig proto;
    const SyntheticWorkload w =
        makeSynthetic(sp, proto.disks * proto.disk.totalBlocks());

    std::vector<std::vector<LayoutBitmap>> bitmaps;
    const std::vector<bench::SystemSpec> specs =
        buildSweepSpecs(w, bitmaps);
    const std::vector<SweepJob> jobs = specsToJobs(specs);

    // DTSIM_JOBS if set, hardware concurrency otherwise — and
    // recorded in the tracked JSON, so a reader can tell what the
    // speedup was measured with.
    const unsigned n_jobs = hostThreads();
    const unsigned hw = std::thread::hardware_concurrency();

    auto start = std::chrono::steady_clock::now();
    const std::vector<RunResult> serial = runSweep(jobs, 1);
    const double sweep_serial_s = secondsSince(start);

    std::printf("sweep serial:   %.3f s (%zu jobs)\n", sweep_serial_s,
                jobs.size());

    // With one worker the "parallel" run would execute the identical
    // serial path again and report ~1.0x as if it were a measurement.
    // Skip it and record null instead of publishing a meaningless
    // number (a single-core box lands here unless DTSIM_JOBS forces
    // oversubscription).
    double sweep_parallel_s = -1.0;
    double speedup = -1.0;
    if (n_jobs > 1) {
        start = std::chrono::steady_clock::now();
        const std::vector<RunResult> parallel = runSweep(jobs, n_jobs);
        sweep_parallel_s = secondsSince(start);

        // Parallel execution must not change a single result.
        for (std::size_t i = 0; i < serial.size(); ++i) {
            if (serial[i].ioTime != parallel[i].ioTime ||
                serial[i].agg.reads != parallel[i].agg.reads) {
                warn("job %zu differs between serial and parallel"
                     " execution", i);
                return 1;
            }
        }

        speedup = sweep_serial_s / sweep_parallel_s;
        std::printf("sweep parallel: %.3f s (%u threads)\n",
                    sweep_parallel_s, n_jobs);
        std::printf("sweep speedup:  %.2fx\n", speedup);
    } else {
        std::printf("sweep parallel: skipped (1 worker thread; "
                    "set DTSIM_JOBS>1 to measure)\n");
    }

    // --- 3. Single-run kernel events/sec. ---
    // One full simulation (not the synthetic event loop above): the
    // events/sec a real replay achieves end to end on a 4-disk array.
    SystemConfig run_cfg;
    run_cfg.disks = 4;
    run_cfg.streams = 128;
    run_cfg.workers = 64;

    SyntheticParams rp;
    rp.fileSizeBytes = 16 * kKiB;
    rp.numRequests = 30000;
    rp.zipfAlpha = 0.6;
    const SyntheticWorkload rw = makeSynthetic(
        rp, run_cfg.disks * run_cfg.disk.totalBlocks());

    auto run_once = [&]() {
        Experiment e(run_cfg);
        e.replay(rw.trace);
        return e.run();
    };
    run_once();   // Warm-up.
    const double run_eps = run_once().eventsPerSec();
    std::printf("single-run events/sec: %.3e\n", run_eps);

    // --- Write the tracked trajectory point. ---
    const char* out_env = std::getenv("DTSIM_BENCH_OUT");
    const std::string out =
        out_env ? out_env : "BENCH_kernel.json";
    FILE* f = std::fopen(out.c_str(), "w");
    if (!f) {
        warn("cannot write %s", out.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"events_per_sec\": %.0f,\n"
                 "  \"events_per_sec_seed\": %.0f,\n"
                 "  \"kernel_speedup\": %.3f,\n"
                 "  \"sweep_serial_s\": %.3f,\n",
                 eps, eps_seed, kernel_speedup, sweep_serial_s);
    if (speedup > 0.0)
        std::fprintf(f,
                     "  \"sweep_parallel_s\": %.3f,\n"
                     "  \"speedup\": %.3f,\n",
                     sweep_parallel_s, speedup);
    else
        std::fprintf(f,
                     "  \"sweep_parallel_s\": null,\n"
                     "  \"speedup\": null,\n");
    std::fprintf(f,
                 "  \"run_events_per_sec\": %.0f,\n"
                 "  \"jobs\": %u,\n"
                 "  \"hw_threads\": %u\n"
                 "}\n",
                 run_eps, n_jobs, hw);
    std::fclose(f);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
