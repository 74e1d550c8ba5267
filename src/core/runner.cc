#include "core/run_impl.hh"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>

#include <sys/resource.h>

#include "config/sim_config.hh"
#include "core/report.hh"
#include "hdc/online_policy.hh"
#include "sim/logging.hh"
#include "stats/service_stats.hh"
#include "stats/trace.hh"

namespace dtsim {

std::uint64_t
hdcBlocksPerDisk(const SystemConfig& cfg)
{
    if (!cfg.hdc.enabled())
        return 0;
    return cfg.hdc.budgetBytesPerDisk / cfg.disk.blockSize;
}

RunResult
runTrace(const SystemConfig& cfg, const Trace& trace,
         const RunOptions& opts,
         const std::vector<LayoutBitmap>* bitmaps,
         const std::vector<ArrayBlock>* pinned)
{
    const auto run_begin = std::chrono::steady_clock::now();
    auto total_seconds = [&] {
        return opts.prep.seconds() +
               std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - run_begin)
                   .count();
    };

    EventQueue eq;
    DiskArray array(eq, cfg.arrayConfig());

    if (cfg.kind == SystemKind::FOR) {
        if (!bitmaps)
            fatal("runTrace: FOR systems need layout bitmaps");
        array.setBitmaps(bitmaps);
    }

    if (cfg.hdc.enabled() && cfg.hdc.policy == HdcPolicy::Oracle &&
        pinned) {
        for (ArrayBlock lb : *pinned)
            array.pinLogicalBlock(lb);
    }

    // Observability wiring. The service histograms are only attached
    // when a stats destination is configured, so plain runs pay
    // nothing; the tracer's fast-path guard is an inline null check.
    // Every output begins with the effective-config header; callers
    // that built the run from a full SimulationConfig pass theirs,
    // direct runTrace() calls get a system/disk-level one.
    std::string config_header = opts.configHeader;
    if (config_header.empty() &&
        (opts.wantsStats() || !opts.tracePath.empty())) {
        SimulationConfig sim;
        sim.system = cfg;
        sim.output.traceCfg = opts.trace;
        config_header = renderConfigHeader(
            sim, {"system.", "disk.", "trace.", "fault."});
    }

    StatsSink::Writer stats_out = opts.stats.open("runTrace");
    if (stats_out)
        stats_out.os() << config_header;

    stats::StatGroup live_root("sim");
    std::unique_ptr<stats::ServiceStats> svc;
    if (opts.wantsStats()) {
        svc = std::make_unique<stats::ServiceStats>(live_root);
        array.setServiceStats(svc.get());
    }

    // Stamp scripted fault events (disk kill/repair/rebuild-done)
    // into the stats output as annotated snapshots, so a degraded
    // window can be located in the dump without the JSONL trace.
    //
    // The annotated snapshot is taken one command latency after the
    // event, in a front event: it shows the state once the event has
    // reached the controllers, before that tick's own work runs.
    if (array.faultsEnabled() && stats_out) {
        const Tick cmd_latency = array.commandLatency();
        array.setFaultEventHook(
            [&, cmd_latency](const char* event, unsigned disk,
                             Tick now) {
                eq.scheduleAtFront(
                    now + cmd_latency, [&, event, disk, now]() {
                        stats_out.os() << "# fault event @" << now
                                       << ": " << event << " disk "
                                       << disk << "\n";
                        writeStatsSnapshot(stats_out.os(), array,
                                           svc.get(), eq.now());
                    });
            });
    }

    RequestTracer tracer;
    if (!opts.tracePath.empty()) {
        tracer.open(opts.tracePath, opts.trace);
        tracer.writePreamble(config_header);
        array.setTracer(&tracer);
    }

    ReplayEngine engine(eq, array, trace, cfg.streams, cfg.workers);

    // The online HDC policy observes the replayed miss stream (each
    // trace record is a host buffer-cache miss by construction) and
    // re-plans pin sets from the front-event chain armed below.
    std::unique_ptr<OnlineHdcPolicy> online;
    if (cfg.hdc.online()) {
        online = std::make_unique<OnlineHdcPolicy>(array, cfg.hdc);
        engine.setObserver(
            [&online](const TraceRecord& rec, Tick) {
                online->onAccess(rec.start, rec.count);
            });
    }

    // Periodic snapshots ride the simulation event queue as front
    // events at absolute ticks: a front event at tick S runs before
    // every normal tick-S event, so it reads the state before that
    // tick's simulation work.
    //
    // Each chain stops re-arming once no work other than housekeeping
    // is pending, so the chains never keep the queue alive by
    // themselves -- or, crucially, each other (two chains that each
    // re-armed on `!empty()` would sustain one another forever once
    // the real workload drained).
    std::size_t housekeeping = 0;
    std::function<void()> snapshot;
    if (opts.statsIntervalTicks > 0 && opts.wantsStats()) {
        snapshot = [&]() {
            --housekeeping;
            if (stats_out)
                writeStatsSnapshot(stats_out.os(), array, svc.get(),
                                   eq.now());
            if (eq.pending() > housekeeping) {
                ++housekeeping;
                eq.scheduleAtFront(eq.now() + opts.statsIntervalTicks,
                                   snapshot);
            }
        };
        ++housekeeping;
        eq.scheduleAtFront(opts.statsIntervalTicks, snapshot);
    }

    // Online HDC re-plans chain like snapshots: front events at
    // absolute ticks. The pin deltas a re-plan just posted are
    // discounted from the pending count when deciding whether to
    // re-arm, so once the trace has drained the chain stops instead
    // of chasing its own commands.
    std::function<void()> replan_tick;
    std::chrono::steady_clock::duration replan_time{};
    if (online) {
        replan_tick = [&]() {
            --housekeeping;
            const OnlineHdcCounters& oc = online->counters();
            const std::uint64_t cmds_before = oc.pins + oc.unpins;
            const auto replan_begin = std::chrono::steady_clock::now();
            online->replan();
            replan_time += std::chrono::steady_clock::now() - replan_begin;
            // Each logical pin/unpin posts one command per replica.
            const std::uint64_t issued =
                (oc.pins + oc.unpins - cmds_before) *
                (array.mirrored() ? 2 : 1);
            if (eq.pending() > housekeeping + issued) {
                ++housekeeping;
                eq.scheduleAtFront(
                    eq.now() + online->nextIntervalTicks(), replan_tick);
            }
        };
        ++housekeeping;
        eq.scheduleAtFront(cfg.hdc.replanIntervalTicks, replan_tick);
    }

    const auto wall_begin = std::chrono::steady_clock::now();

    const Tick io_time = engine.run();
    const Tick post_drain = eq.now();

    Tick flush_time = 0;
    if (cfg.hdc.enabled()) {
        array.flushAllHdc();
        eq.run();
        const Tick end = eq.now();
        // A trailing snapshot or re-plan event may have advanced the
        // clock past the last completion before the flush began;
        // charge the flush window from there so it is not inflated
        // (with both off, base == io_time and the result is identical
        // to a run without observability).
        const Tick base = (opts.statsIntervalTicks > 0 || online)
                              ? std::max(io_time, post_drain)
                              : io_time;
        flush_time = end > base ? end - base : 0;
    }
    const auto wall_end = std::chrono::steady_clock::now();

    // Drain invariant: with the queue empty, every request has
    // completed and every in-flight record is back in its pool.
    for (unsigned d = 0; d < array.disks(); ++d) {
        const DiskController& c = array.controller(d);
        if (c.outstanding() != 0 || c.recordsInFlight() != 0)
            panic("runTrace: disk %u did not drain (%llu requests "
                  "outstanding, %zu in-flight records not pooled)",
                  d, static_cast<unsigned long long>(c.outstanding()),
                  c.recordsInFlight());
    }

    // Conservation identities: every disk's counters account for each
    // request, block and media job once, every trace record completed
    // exactly once, and every disk request that completed was either
    // written to the request trace or skipped by its sampling draw.
    std::string violations;
    for (unsigned d = 0; d < array.disks(); ++d)
        for (const std::string& v : array.controller(d).accountingErrors())
            violations += "\n  " + v;
    if (engine.metrics().requests != trace.size())
        violations += strfmt("\n  %llu requests completed for %zu "
                             "trace records",
                             static_cast<unsigned long long>(
                                 engine.metrics().requests),
                             trace.size());
    const ControllerStats agg = array.aggregateStats();
    if (tracer.enabled() &&
        tracer.records() + tracer.sampledOut() != agg.reads + agg.writes)
        violations += strfmt("\n  request trace: records+sampled_out "
                             "== reads+writes (%llu vs %llu)",
                             static_cast<unsigned long long>(
                                 tracer.records() + tracer.sampledOut()),
                             static_cast<unsigned long long>(
                                 agg.reads + agg.writes));
    if (!violations.empty())
        panic("runTrace: stats violate their identities:%s",
              violations.c_str());

    RunResult res;
    res.ioTime = io_time;
    res.flushTime = flush_time;
    res.elapsed = io_time + flush_time;
    res.requests = engine.metrics().requests;
    res.blocks = engine.metrics().blocks;
    res.meanLatencyMs = engine.metrics().meanLatencyMs();
    res.eventsFired = eq.fired();
    res.wallSeconds =
        std::chrono::duration<double>(wall_end - wall_begin).count();
    res.replanSeconds =
        std::chrono::duration<double>(replan_time).count();
    res.prep = opts.prep;
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) == 0)
        res.processPeakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    if (online) {
        const OnlineHdcCounters& oc = online->counters();
        res.onlineMisses = oc.misses;
        res.onlineReplans = oc.replans;
        res.onlineFastReplans = oc.fastReplans;
        res.onlinePins = oc.pins;
        res.onlineUnpins = oc.unpins;
    }
    res.agg = agg;
    res.ra = array.aggregateRaCounters();
    res.faults = array.faultCounters();

    const std::uint64_t accesses = res.agg.reads + res.agg.writes;
    if (accesses > 0) {
        res.hdcHitRate =
            static_cast<double>(res.agg.hdcHitRequests) /
            static_cast<double>(accesses);
        res.cacheHitRate =
            static_cast<double>(res.agg.cacheHitRequests) /
            static_cast<double>(accesses);
    }

    if (io_time > 0) {
        // The busy time may include end-of-run HDC flush work, so
        // utilization is taken over the full elapsed time (see the
        // RunResult field docs for the denominator conventions).
        double util = 0.0;
        for (unsigned d = 0; d < array.disks(); ++d) {
            util += static_cast<double>(
                        array.controller(d).stats().mediaBusy) /
                    static_cast<double>(res.elapsed);
        }
        res.diskUtilization = util / array.disks();

        const double bytes = static_cast<double>(res.blocks) *
                             cfg.disk.blockSize;
        res.throughputMBps = bytes / toSeconds(io_time) / 1.0e6;
        res.throughputElapsedMBps =
            bytes / toSeconds(res.elapsed) / 1.0e6;
    }

    tracer.close();
    res.traceRecords = tracer.records();
    res.traceSampledOut = tracer.sampledOut();

    if (stats_out) {
        // The dump adds the time it takes to render itself.
        res.totalSeconds = total_seconds();
        writeStatsDump(stats_out.os(), cfg, res, array, svc.get(),
                       opts.fsStats);
        stats_out.close();
    }
    res.totalSeconds = total_seconds();

    return res;
}

} // namespace dtsim
