#include "core/report.hh"

#include <chrono>
#include <sstream>

#include "array/disk_array.hh"
#include "stats/stats.hh"

namespace dtsim {

namespace {

/**
 * The single-run kernel throughput line, with the wall time of each
 * preparation phase next to the replay's, the online HDC re-planner's
 * share of the replay, the whole run's wall time (`total_seconds`),
 * and the process's peak RSS so far. Host readings and the event
 * count are not simulation results, so both printers emit them as a
 * comment-style line that byte-comparisons strip.
 */
void
printRuntimeLine(std::ostream& os, const RunResult& r,
                 double total_seconds)
{
    os << "# runtime: events=" << r.eventsFired
       << " replay_ms=" << r.wallSeconds * 1.0e3
       << " replan_ms=" << r.replanSeconds * 1.0e3
       << " gen_ms=" << r.prep.genSeconds * 1.0e3
       << " bitmaps_ms=" << r.prep.bitmapsSeconds * 1.0e3
       << " plan_ms=" << r.prep.planSeconds * 1.0e3
       << " total_ms=" << total_seconds * 1.0e3
       << " events_per_sec=" << r.eventsPerSec()
       << " process_peak_rss_mb=" << r.processPeakRssMb
       << " (volatile; excluded from determinism comparisons)\n";
}

/**
 * The sampled-tracing accounting line. Comment style, and stripped
 * from byte comparisons alongside "# runtime:", so a traced run's dump
 * compares equal to an untraced one.
 */
void
printTraceLine(std::ostream& os, const RunResult& r)
{
    if (r.traceRecords == 0 && r.traceSampledOut == 0)
        return;
    os << "# trace: records=" << r.traceRecords
       << " sampled_out=" << r.traceSampledOut << "\n";
}

/** Add an owned scalar to `g` and set it. */
void
addScalar(stats::StatGroup& g, const char* name, const char* desc,
          double v)
{
    g.make<stats::Scalar>(name, desc).set(v);
}

void
addScalarU(stats::StatGroup& g, const char* name, const char* desc,
           std::uint64_t v)
{
    addScalar(g, name, desc, static_cast<double>(v));
}

/** Fill a group with the run-level results of `r`. */
void
fillRunGroup(stats::StatGroup& root, const RunResult& r)
{
    addScalar(root, "io_time_ms", "total I/O time (makespan)",
              toMillis(r.ioTime));
    addScalar(root, "hdc_flush_ms",
              "extra time flushing dirty HDC blocks",
              toMillis(r.flushTime));
    addScalar(root, "elapsed_ms", "io_time_ms + hdc_flush_ms",
              toMillis(r.elapsed));
    addScalarU(root, "requests", "disk requests completed",
               r.requests);
    addScalarU(root, "blocks", "blocks transferred", r.blocks);
    addScalar(root, "throughput_mbps",
              "delivered throughput over io_time",
              r.throughputMBps);
    addScalar(root, "throughput_elapsed_mbps",
              "delivered throughput over elapsed time",
              r.throughputElapsedMBps);
    addScalar(root, "mean_latency_ms", "mean request latency",
              r.meanLatencyMs);
    addScalar(root, "latency_max_ms", "maximum request latency",
              toMillis(r.agg.latencyMax));
    addScalar(root, "disk_utilization", "mean media busy fraction",
              r.diskUtilization);

    stats::StatGroup& cache = root.makeGroup("cache");
    addScalar(cache, "hit_rate",
              "requests served without media access", r.cacheHitRate);
    addScalar(cache, "hdc_hit_rate",
              "requests served by the HDC store", r.hdcHitRate);
    addScalarU(cache, "read_ahead_blocks",
               "speculative blocks fetched", r.agg.readAheadBlocks);
    addScalarU(cache, "ra_hit_blocks",
               "blocks served from the read-ahead cache",
               r.agg.raHitBlocks);
    addScalarU(cache, "hdc_hit_blocks",
               "blocks served from the HDC store",
               r.agg.hdcHitBlocks);

    stats::StatGroup& ra = root.makeGroup("read_ahead");
    addScalarU(ra, "spec_inserted",
               "speculative blocks inserted into the cache",
               r.ra.specInserted);
    addScalarU(ra, "spec_used",
               "speculative blocks later demanded (useful)",
               r.ra.specUsed);
    addScalarU(ra, "spec_wasted",
               "speculative blocks evicted or invalidated unused",
               r.ra.specWasted);
    addScalar(ra, "accuracy", "spec_used / spec_inserted",
              r.ra.accuracy());

    stats::StatGroup& media = root.makeGroup("media");
    addScalarU(media, "accesses", "media accesses",
               r.agg.mediaAccesses);
    addScalarU(media, "demand_blocks", "demanded blocks read/written",
               r.agg.mediaBlocks);
    addScalar(media, "seek_ms", "total seek time",
              toMillis(r.agg.seekTime));
    addScalar(media, "rotation_ms", "total rotational delay",
              toMillis(r.agg.rotTime));
    addScalar(media, "transfer_ms", "total media transfer time",
              toMillis(r.agg.xferTime));
    addScalar(media, "queue_ms", "total scheduler queue wait",
              toMillis(r.agg.queueTime));
    addScalar(media, "bus_ms", "total SCSI bus transfer time",
              toMillis(r.agg.busTime));
    addScalarU(media, "hdc_flush_writes",
               "background HDC flush media jobs", r.agg.flushWrites);
}

} // namespace

void
printReport(std::ostream& os, const SystemConfig& cfg,
            const RunResult& r)
{
    stats::StatGroup root("sim");
    fillRunGroup(root, r);

    os << "system: " << cfg.label() << "  disks=" << cfg.disks
       << "  unit=" << cfg.stripeUnitBytes / 1024 << "KB"
       << "  streams=" << cfg.streams << "\n";
    printRuntimeLine(os, r, r.totalSeconds);
    printTraceLine(os, r);
    if (r.onlineReplans > 0)
        os << "online-hdc: replans=" << r.onlineReplans
           << "  fast-replans=" << r.onlineFastReplans
           << "  pins=" << r.onlinePins
           << "  unpins=" << r.onlineUnpins << "\n";
    if (r.faults.any())
        os << "faults: disk-failures=" << r.faults.diskFailures
           << "  degraded-reads=" << r.faults.degradedReads
           << "  rebuilt-blocks=" << r.faults.rebuildBlocks << "\n";
    root.print(os);
}

namespace {

/** The stats dump below its volatile header lines. */
void
writeStatsBody(std::ostream& os, const SystemConfig& cfg,
               const RunResult& r, const DiskArray& array,
               const stats::ServiceStats* svc,
               const BufferCacheStats* fs_stats)
{
    os << "system: " << cfg.label() << "  disks=" << cfg.disks
       << "  unit=" << cfg.stripeUnitBytes / 1024 << "KB"
       << "  streams=" << cfg.streams << "\n";

    stats::StatGroup root("sim");
    fillRunGroup(root, r);

    stats::StatGroup& conf = root.makeGroup("config");
    addScalarU(conf, "disks", "disks in the array", cfg.disks);
    addScalarU(conf, "stripe_unit_kb", "striping unit",
               cfg.stripeUnitBytes / 1024);
    addScalarU(conf, "streams", "concurrent I/O streams",
               cfg.streams);
    addScalarU(conf, "workers", "replay worker threads (0 = one per"
               " stream)", cfg.workers);
    addScalarU(conf, "hdc_kb_per_disk", "HDC budget per disk",
               cfg.hdc.budgetBytesPerDisk / 1024);
    addScalarU(conf, "seed", "workload/layout RNG seed", cfg.seed);

    // Online-policy activity: gated on the policy so every other
    // run's dump is byte-identical to the pre-online format.
    if (cfg.hdc.online()) {
        stats::StatGroup& oh = root.makeGroup("hdc").makeGroup(
            "online");
        addScalarU(oh, "misses", "host miss observations folded into "
                   "the sketch", r.onlineMisses);
        addScalarU(oh, "replans", "re-plan epochs run",
                   r.onlineReplans);
        addScalarU(oh, "fast_replans",
                   "epochs that flagged a phase change",
                   r.onlineFastReplans);
        addScalarU(oh, "pins", "pin_blk deltas issued",
                   r.onlinePins);
        addScalarU(oh, "unpins", "unpin_blk deltas issued",
                   r.onlineUnpins);
    }

    if (fs_stats) {
        stats::StatGroup& fs = root.makeGroup("fs");
        addScalarU(fs, "read_lookups",
                   "buffer-cache read lookups (trace generation)",
                   fs_stats->readLookups);
        addScalarU(fs, "read_misses",
                   "read lookups that missed to disk",
                   fs_stats->readMisses);
        addScalar(fs, "read_hit_rate", "1 - read_misses/read_lookups",
                  fs_stats->readHitRate());
        addScalarU(fs, "write_lookups", "buffer-cache write lookups",
                   fs_stats->writeLookups);
        addScalarU(fs, "write_merges",
                   "writes absorbed into already-dirty blocks",
                   fs_stats->writeMerges);
        addScalarU(fs, "evictions", "buffer-cache evictions",
                   fs_stats->evictions);
        addScalarU(fs, "dirty_writebacks",
                   "dirty blocks written back to disk",
                   fs_stats->dirtyWritebacks);
    }

    // Component counters (per-disk + bus) join the same tree so one
    // print covers everything under the "sim." prefix. Clock-derived
    // ratios are pinned to the run's elapsed time, which a trailing
    // snapshot event may have advanced the queue clock past.
    array.exportStats(root, r.elapsed);
    root.print(os);

    // The service histograms live in the runner's own group; print
    // them under the same prefix so the dump reads as one namespace.
    if (svc)
        svc->group.print(os, "sim.");
}

} // namespace

void
writeStatsDump(std::ostream& os, const SystemConfig& cfg,
               const RunResult& r, const DiskArray& array,
               const stats::ServiceStats* svc,
               const BufferCacheStats* fs_stats)
{
    // Render everything below the runtime line first, so the line's
    // total_ms covers the dump's rendering too.
    const auto begin = std::chrono::steady_clock::now();
    std::ostringstream body;
    body.copyfmt(os);
    writeStatsBody(body, cfg, r, array, svc, fs_stats);
    const double render_seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - begin).count();

    os << "# dtsim stats dump -- every name is documented in"
          " docs/METRICS.md\n";
    printRuntimeLine(os, r, r.totalSeconds + render_seconds);
    printTraceLine(os, r);
    os << body.view();
}

void
writeStatsSnapshot(std::ostream& os, const DiskArray& array,
                   const stats::ServiceStats* svc, Tick now)
{
    os << "# snapshot @" << now << " (" << toMillis(now) << " ms)\n";
    stats::StatGroup root("sim");
    // Pin clock-derived ratios to the snapshot tick.
    array.exportStats(root, now);
    root.print(os);
    if (svc)
        svc->group.print(os, "sim.");
    os.flush();
}

} // namespace dtsim
