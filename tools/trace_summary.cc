/**
 * @file
 * Trace analyzer: read a binary request trace written by --trace and
 * print latency percentiles plus a cache-attribution table, the
 * numbers the paper's FOR accuracy and HDC hit-rate discussions rest
 * on. EXPERIMENTS.md shows how its
 * output reconciles with the --stats-out dump of the same run;
 * docs/OBSERVABILITY.md has the full cookbook.
 *
 * Usage: trace_summary [--outliers] [--to-jsonl] FILE [FILE...]
 *
 *   (default)   summary: attribution table, component totals,
 *               latency percentiles up to p99.9
 *   --outliers  tail attribution: where the p99.9+ requests spend
 *               their time and which outcome/disk produces them
 *   --to-jsonl  print each FILE as JSONL records on stdout, the
 *               human and external-tooling view (schema in
 *               docs/METRICS.md; '#' preamble lines are not
 *               forwarded)
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "stats/trace.hh"

using namespace dtsim;

namespace {

/** Per-outcome accumulation. */
struct OutcomeTotals
{
    std::uint64_t requests = 0;
    std::uint64_t blocks = 0;
    Tick latency = 0;
};

double
pct(std::uint64_t part, std::uint64_t whole)
{
    return whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0;
}

/** k-th percentile (0-100) of a sorted tick vector, in ticks. */
Tick
percentileTicks(const std::vector<Tick>& sorted, double k)
{
    if (sorted.empty())
        return 0;
    const double rank =
        k / 100.0 * static_cast<double>(sorted.size() - 1);
    const std::size_t i = static_cast<std::size_t>(rank);
    return sorted[std::min(i, sorted.size() - 1)];
}

/** k-th percentile (0-100) of a sorted tick vector, in ms. */
double
percentileMs(const std::vector<Tick>& sorted, double k)
{
    return toMillis(percentileTicks(sorted, k));
}

int
summarize(const std::string& path)
{
    std::vector<RequestTraceEvent> events;
    if (!readTraceFile(path, events))
        return 1;

    std::printf("trace: %s\n", path.c_str());
    if (events.empty()) {
        std::printf("  (empty)\n");
        return 0;
    }

    std::uint64_t blocks = 0;
    std::uint64_t writes = 0;
    OutcomeTotals by_outcome[3];
    Tick queue = 0, seek = 0, rotation = 0, transfer = 0, bus = 0,
         latency = 0;
    std::uint64_t degraded_reqs = 0;
    Tick degraded_latency = 0;
    std::vector<Tick> lats;
    lats.reserve(events.size());

    for (const RequestTraceEvent& ev : events) {
        blocks += ev.blocks;
        writes += ev.isWrite ? 1 : 0;
        if (ev.degraded) {
            ++degraded_reqs;
            degraded_latency += ev.latency;
        }
        OutcomeTotals& o =
            by_outcome[static_cast<std::size_t>(ev.outcome)];
        ++o.requests;
        o.blocks += ev.blocks;
        o.latency += ev.latency;
        queue += ev.queue;
        seek += ev.seek;
        rotation += ev.rotation;
        transfer += ev.transfer;
        bus += ev.bus;
        latency += ev.latency;
        lats.push_back(ev.latency);
    }

    const std::uint64_t n = events.size();
    std::printf("  requests: %llu  blocks: %llu  writes: %.1f%%\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(blocks),
                pct(writes, n));

    std::printf("  served by:  %-10s %-12s %-8s %-12s %s\n",
                "outcome", "requests", "share", "blocks",
                "mean lat(ms)");
    const TraceOutcome outcomes[] = {TraceOutcome::Media,
                                     TraceOutcome::Cache,
                                     TraceOutcome::Hdc};
    for (TraceOutcome oc : outcomes) {
        const OutcomeTotals& o =
            by_outcome[static_cast<std::size_t>(oc)];
        char share[16];
        std::snprintf(share, sizeof(share), "%.1f%%",
                      pct(o.requests, n));
        std::printf("              %-10s %-12llu %-8s %-12llu "
                    "%.3f\n",
                    traceOutcomeName(oc),
                    static_cast<unsigned long long>(o.requests),
                    share,
                    static_cast<unsigned long long>(o.blocks),
                    o.requests ? toMillis(o.latency) /
                                     static_cast<double>(o.requests)
                               : 0.0);
    }

    std::printf("  time (ms):  queue=%.3f seek=%.3f rotation=%.3f "
                "transfer=%.3f bus=%.3f latency=%.3f\n",
                toMillis(queue), toMillis(seek), toMillis(rotation),
                toMillis(transfer), toMillis(bus), toMillis(latency));

    std::sort(lats.begin(), lats.end());
    std::printf("  latency (ms): p50=%.3f p90=%.3f p99=%.3f "
                "p99.9=%.3f max=%.3f mean=%.3f\n",
                percentileMs(lats, 50.0), percentileMs(lats, 90.0),
                percentileMs(lats, 99.0), percentileMs(lats, 99.9),
                toMillis(lats.back()),
                toMillis(latency) / static_cast<double>(n));

    // Degraded-mode attribution: which requests were redirected off
    // a dead replica (printed only when any were, so fault-free
    // traces keep their familiar output).
    if (degraded_reqs) {
        std::printf("  degraded:   requests=%llu (%.1f%%) mean "
                    "lat(ms)=%.3f\n",
                    static_cast<unsigned long long>(degraded_reqs),
                    pct(degraded_reqs, n),
                    degraded_reqs
                        ? toMillis(degraded_latency) /
                              static_cast<double>(degraded_reqs)
                        : 0.0);
    }
    return 0;
}

/**
 * Tail attribution: isolate the requests at or above the p99.9
 * latency and explain them — which outcome and disks they hit, and
 * how their mean service components compare against the whole trace.
 * This is the production-debugging view: "what do my slowest
 * requests have in common?"
 */
int
outliers(const std::string& path)
{
    std::vector<RequestTraceEvent> events;
    if (!readTraceFile(path, events))
        return 1;

    std::printf("trace: %s\n", path.c_str());
    if (events.empty()) {
        std::printf("  (empty)\n");
        return 0;
    }

    std::vector<Tick> lats;
    lats.reserve(events.size());
    for (const RequestTraceEvent& ev : events)
        lats.push_back(ev.latency);
    std::sort(lats.begin(), lats.end());

    const Tick p999 = percentileTicks(lats, 99.9);
    std::printf("  requests: %llu  p99=%.3f ms  p99.9=%.3f ms  "
                "p99.99=%.3f ms  max=%.3f ms\n",
                static_cast<unsigned long long>(events.size()),
                percentileMs(lats, 99.0), percentileMs(lats, 99.9),
                percentileMs(lats, 99.99), toMillis(lats.back()));

    // Means over the whole trace, for the comparison row.
    Tick aq = 0, as = 0, ar = 0, ax = 0, ab = 0, al = 0;
    for (const RequestTraceEvent& ev : events) {
        aq += ev.queue;
        as += ev.seek;
        ar += ev.rotation;
        ax += ev.transfer;
        ab += ev.bus;
        al += ev.latency;
    }

    // The tail set: everything at or above the p99.9 latency.
    std::uint64_t tn = 0, tn_writes = 0, tn_degraded = 0;
    Tick tq = 0, ts = 0, tr = 0, tx = 0, tb = 0, tl = 0;
    std::uint64_t by_outcome[3] = {0, 0, 0};
    std::map<std::uint32_t, std::uint64_t> by_disk;
    for (const RequestTraceEvent& ev : events) {
        if (ev.latency < p999)
            continue;
        ++tn;
        tn_writes += ev.isWrite ? 1 : 0;
        tn_degraded += ev.degraded ? 1 : 0;
        tq += ev.queue;
        ts += ev.seek;
        tr += ev.rotation;
        tx += ev.transfer;
        tb += ev.bus;
        tl += ev.latency;
        ++by_outcome[static_cast<std::size_t>(ev.outcome)];
        ++by_disk[ev.disk];
    }
    if (tn == 0) {
        std::printf("  (no requests at or above p99.9)\n");
        return 0;
    }

    std::printf("  tail (>= p99.9): %llu requests  writes=%.1f%%  "
                "degraded=%llu\n",
                static_cast<unsigned long long>(tn),
                pct(tn_writes, tn),
                static_cast<unsigned long long>(tn_degraded));

    std::printf("  by outcome: ");
    const TraceOutcome outcomes[] = {TraceOutcome::Media,
                                     TraceOutcome::Cache,
                                     TraceOutcome::Hdc};
    for (TraceOutcome oc : outcomes) {
        const std::uint64_t c =
            by_outcome[static_cast<std::size_t>(oc)];
        std::printf("%s=%llu (%.1f%%)  ", traceOutcomeName(oc),
                    static_cast<unsigned long long>(c), pct(c, tn));
    }
    std::printf("\n");

    std::printf("  by disk:    ");
    for (const auto& [disk, count] : by_disk)
        std::printf("d%u=%llu  ", disk,
                    static_cast<unsigned long long>(count));
    std::printf("\n");

    const double dn = static_cast<double>(tn);
    const double an = static_cast<double>(events.size());
    std::printf("  mean (ms):       %-10s %-10s %-10s %-10s %-10s "
                "%s\n",
                "queue", "seek", "rotation", "transfer", "bus",
                "latency");
    std::printf("    tail request:  %-10.3f %-10.3f %-10.3f %-10.3f "
                "%-10.3f %.3f\n",
                toMillis(tq) / dn, toMillis(ts) / dn,
                toMillis(tr) / dn, toMillis(tx) / dn,
                toMillis(tb) / dn, toMillis(tl) / dn);
    std::printf("    whole trace:   %-10.3f %-10.3f %-10.3f %-10.3f "
                "%-10.3f %.3f\n",
                toMillis(aq) / an, toMillis(as) / an,
                toMillis(ar) / an, toMillis(ax) / an,
                toMillis(ab) / an, toMillis(al) / an);
    return 0;
}

/** Print a trace as JSONL records on stdout. */
int
toJsonl(const std::string& path)
{
    std::vector<RequestTraceEvent> events;
    if (!readTraceFile(path, events))
        return 1;
    for (const RequestTraceEvent& ev : events) {
        const std::string line =
            traceRecordToJsonl(packTraceRecord(ev));
        std::fwrite(line.data(), 1, line.size(), stdout);
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    initLogLevelFromEnv();

    bool want_outliers = false;
    bool want_jsonl = false;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--outliers") == 0)
            want_outliers = true;
        else if (std::strcmp(argv[i], "--to-jsonl") == 0)
            want_jsonl = true;
        else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            return 2;
        } else
            files.push_back(argv[i]);
    }
    if (files.empty() || (want_outliers && want_jsonl)) {
        std::fprintf(stderr, "usage: trace_summary [--outliers] "
                             "[--to-jsonl] FILE [FILE...]\n");
        return 2;
    }

    int rc = 0;
    for (const std::string& f : files) {
        if (want_jsonl)
            rc |= toJsonl(f);
        else if (want_outliers)
            rc |= outliers(f);
        else
            rc |= summarize(f);
    }
    return rc;
}
