/**
 * @file
 * Runtime-sampled per-request tracing.
 *
 * RequestTracer emits one record per sampled completed disk-level I/O:
 * completion tick, disk, starting LBA, block count, direction, how the
 * request was served (media / controller cache / HDC), and the service
 * time breakdown (queue, seek, rotation, transfer, bus, total latency),
 * all in ticks (nanoseconds). The file holds '#' comment lines
 * carrying the effective config, a "#dtsim-binary-trace" marker line,
 * then fixed 64-byte little-endian records (stats/trace_ring.hh).
 * That is the only on-disk encoding; traceRecordToJsonl renders a
 * record as one JSON object per line, the human view `trace_summary
 * --to-jsonl` prints.
 *
 * The hot path is built to be left on: shouldRecord() runs the
 * per-request Bernoulli draw (`trace.sample`) against a dedicated
 * deterministic RNG stream (`trace.seed`), so the simulation RNGs are
 * never perturbed and the sampled set is reproducible, because
 * records are drawn in completion order. Accepted records are packed
 * into 64-byte BinaryTraceRecords and pushed through a lock-free SPSC
 * ring drained by a background writer thread; when the writer falls
 * behind and the ring fills, records are dropped and counted
 * (dropped()) rather than ever blocking the simulation thread. The
 * writer never polls — it parks in a futex-backed atomic wait and the
 * producer wakes it only when a batch of records has accumulated — so
 * an armed tracer costs the simulation nothing while idle, even on a
 * single-CPU host where the two threads share one core. An untraced
 * run pays one null check per completion.
 */

#ifndef DTSIM_STATS_TRACE_HH
#define DTSIM_STATS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/rng.hh"
#include "sim/ticks.hh"
#include "stats/trace_ring.hh"

namespace dtsim {

/** How a traced request was ultimately served. */
enum class TraceOutcome : std::uint8_t {
    Media,  ///< at least one block required a media access
    Cache,  ///< served entirely from the controller read cache
    Hdc,    ///< served/absorbed entirely by the hot-data cache
};

/** JSON value of the "how" field for an outcome. */
const char* traceOutcomeName(TraceOutcome o);

/**
 * Runtime tracing knobs (the trace.* config group). The defaults
 * reproduce a full trace, so a bare `--trace FILE` records every
 * request exactly as before sampling existed.
 */
struct TraceConfig
{
    /**
     * Probability that a completed request is recorded, drawn per
     * request from a dedicated RNG stream. 1 = record everything
     * (and skip the draw entirely); 0 = record nothing.
     */
    double sample = 1.0;

    /** Seed of the sampling RNG stream (independent of run seeds). */
    std::uint64_t seed = 1;

    /**
     * Ring capacity in records between the simulation thread and the
     * background writer (rounded up to a power of two). Larger rings
     * absorb longer writer stalls before dropping records. Not a
     * config key: only tests shrink it.
     */
    std::uint64_t bufferRecords = 65536;

    bool operator==(const TraceConfig&) const = default;

    /** True when a config-key knob differs from its default
     * (bufferRecords is not a key and is excluded). */
    bool
    nonDefault() const
    {
        return sample != 1.0 || seed != 1;
    }
};

/** One completed request, as written to / parsed from a trace. */
struct RequestTraceEvent
{
    Tick completed = 0;          ///< completion tick ("t")
    std::uint32_t disk = 0;      ///< physical disk id ("disk")
    std::uint64_t lba = 0;       ///< first block number ("lba")
    std::uint32_t blocks = 0;    ///< request length in blocks ("n")
    bool isWrite = false;        ///< direction ("w": 0/1)
    TraceOutcome outcome = TraceOutcome::Media; ///< ("how")
    Tick queue = 0;              ///< scheduler queue wait ("q")
    Tick seek = 0;               ///< seek + settle time ("seek")
    Tick rotation = 0;           ///< rotational delay ("rot")
    Tick transfer = 0;           ///< media transfer time ("xfer")
    Tick bus = 0;                ///< SCSI bus transfer time ("bus")
    Tick latency = 0;            ///< submit-to-complete time ("lat")
    std::uint32_t faults = 0;    ///< failed media attempts ("faults")
    std::uint32_t retries = 0;   ///< media retries ("retries")
    bool degraded = false;       ///< served off a dead replica's
                                 ///< mirror ("degraded": 0/1)
};

/** Pack an event into the 64-byte on-disk record (saturating the
 * narrow component fields). */
BinaryTraceRecord packTraceRecord(const RequestTraceEvent& ev);

/** Expand a 64-byte record back into an event. */
RequestTraceEvent unpackTraceRecord(const BinaryTraceRecord& rec);

/** Format one record as a JSONL line, including the trailing
 * newline: the schema docs/METRICS.md documents and `trace_summary
 * --to-jsonl` prints. */
std::string traceRecordToJsonl(const BinaryTraceRecord& rec);

/**
 * Writes sampled request records to a trace file through a background
 * writer thread. A default-constructed tracer is disabled; open()
 * arms it and starts the writer. The recording side (shouldRecord /
 * record) must be driven by exactly one thread — the simulation host
 * context; sweep jobs each own their own tracer.
 */
class RequestTracer
{
  public:
    RequestTracer() = default;
    ~RequestTracer() { close(); }

    RequestTracer(const RequestTracer&) = delete;
    RequestTracer& operator=(const RequestTracer&) = delete;

    /**
     * Start writing to `path` (truncates) with the given sampling
     * configuration, and start the background writer thread.
     * fatal() if the file cannot be opened.
     */
    void open(const std::string& path, const TraceConfig& cfg = {});

    /**
     * Stop the writer thread (draining every queued record), flush
     * and close the output file; the tracer becomes disabled.
     * fatal() naming the file if any write to it failed. The
     * records()/sampledOut()/dropped() counters survive close() and
     * report the finished run.
     */
    void close();

    /**
     * Write preamble text (e.g. the effective-config header) ahead of
     * the records. Every line must start with '#'; the reader side
     * and trace_summary skip such lines. Must precede the first
     * record. No-op when disabled.
     */
    void writePreamble(const std::string& text);

    /** True when the tracer is armed (even at trace.sample = 0). */
    bool
    enabled() const
    {
        return out_ != nullptr;
    }

    /**
     * Run the sampling draw for one completed request: true when the
     * caller should build the event and record() it. Call exactly
     * once per candidate — the draw advances the sampling stream, so
     * the call sequence defines the (reproducible) sampled set.
     * Always false when disabled.
     */
    bool
    shouldRecord()
    {
        if (!out_)
            return false;
        if (sampleAll_)
            return true;
        // sample = 0 records nothing and, like sample = 1, leaves
        // the RNG stream untouched.
        if (sampleNone_ || !rng_.chance(cfg_.sample)) {
            ++sampledOut_;
            return false;
        }
        return true;
    }

    /**
     * Queue one request record for the writer thread; no-op when
     * disabled. Does not itself sample — pair with shouldRecord().
     */
    void
    record(const RequestTraceEvent& ev)
    {
        if (out_)
            enqueueRecord(ev);
    }

    /** Records accepted for writing since open() (every one of these
     * reaches the file; ring overflow is counted in dropped()). */
    std::uint64_t records() const { return records_; }

    /** Sampling candidates skipped by the trace.sample draw. */
    std::uint64_t sampledOut() const { return sampledOut_; }

    /** Records lost to ring overflow (writer thread fell behind).
     * Final after close(); timing-dependent, never deterministic. */
    std::uint64_t dropped() const;

  private:
    void enqueueRecord(const RequestTraceEvent& ev);
    void writerLoop();
    void writeBatch(const BinaryTraceRecord* recs, std::size_t n);
    void writeBinaryMarker();

    std::FILE* out_ = nullptr;
    std::string path_;           ///< for the close() failure report
    TraceConfig cfg_;
    Rng rng_;                    ///< dedicated sampling stream
    bool sampleAll_ = true;      ///< sample >= 1: skip the draw
    bool sampleNone_ = false;    ///< sample <= 0: skip the draw
    std::uint64_t records_ = 0;
    std::uint64_t sampledOut_ = 0;
    std::uint64_t droppedFinal_ = 0;  ///< captured at close()
    std::unique_ptr<TraceRing> ring_;
    std::thread writer_;
    std::atomic<bool> stop_{false};

    /**
     * True while the writer thread is blocked in an atomic wait. The
     * writer never polls: once the ring drains it parks here and the
     * producer wakes it (enqueueRecord) only when wakeBatch_ records
     * have accumulated, so an idle or lightly-sampled trace costs
     * zero context switches — essential on single-CPU hosts, where a
     * periodically polling writer steals timeslices from the
     * simulation thread itself. Records below the threshold sit in
     * the ring until the batch fills or close() drains everything.
     */
    std::atomic<bool> parked_{false};
    std::size_t wakeBatch_ = 1;  ///< ring fill that triggers a wake
    bool markerWritten_ = false; ///< writer thread / close() only
};

/**
 * The line that separates the '#' preamble from raw binary records in
 * a binary trace file (written with a trailing newline; the records
 * start at the byte after it).
 */
extern const char kBinaryTraceMarker[];

/**
 * Read a whole binary trace file: '#' preamble lines, the marker line,
 * then 64-byte records. Returns false and warns, naming the path (and
 * the record index for a bad record), on open failure, a missing
 * marker, a truncated final record, an unknown outcome, unknown flag
 * bits, or a nonzero reserved word.
 */
bool readTraceFile(const std::string& path,
                   std::vector<RequestTraceEvent>& out);

} // namespace dtsim

#endif // DTSIM_STATS_TRACE_HH
