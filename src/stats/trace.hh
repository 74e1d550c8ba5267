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
 * then fixed 64-byte little-endian records (BinaryTraceRecord below).
 * That is the only on-disk encoding; traceRecordToJsonl renders a
 * record as one JSON object per line, the human view `trace_summary
 * --to-jsonl` prints.
 *
 * The hot path is built to be left on: shouldRecord() runs the
 * per-request Bernoulli draw (`trace.sample`) against a dedicated
 * deterministic RNG stream (`trace.seed`), so the simulation RNGs are
 * never perturbed and the sampled set is reproducible, because
 * records are drawn in completion order. Accepted records are packed
 * into 64-byte BinaryTraceRecords and written on the simulation
 * thread through the trace file's stdio buffer, so every accepted
 * record reaches the file and the file's bytes depend only on the
 * run's configuration. An untraced run pays one null check per
 * completion.
 */

#ifndef DTSIM_STATS_TRACE_HH
#define DTSIM_STATS_TRACE_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sim/ticks.hh"

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

    bool operator==(const TraceConfig&) const = default;

    /** True when a knob differs from its default. */
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
    bool degraded = false;       ///< served off a dead replica's
                                 ///< mirror ("degraded": 0/1)
};

/**
 * One traced request as stored on disk: 64 bytes, little-endian,
 * field order below (see docs/OBSERVABILITY.md for the authoritative
 * field table). Tick-valued fields that can exceed 4.29 seconds
 * (completion tick, latency, queue wait) are 64-bit; the per-component
 * service times (seek, rotation, transfer, bus) are 32-bit — they are
 * bounded by single-access mechanics, orders of magnitude under the
 * 4.29 s limit — and saturate rather than wrap if an exotic
 * configuration ever exceeds them.
 */
struct BinaryTraceRecord
{
    std::uint64_t completed;   ///< completion tick ("t")
    std::uint64_t lba;         ///< first block number
    std::uint64_t latency;     ///< submit-to-complete ticks
    std::uint64_t queue;       ///< scheduler queue wait ticks
    std::uint32_t seek;        ///< seek + settle ticks (saturating)
    std::uint32_t rotation;    ///< rotational delay ticks (saturating)
    std::uint32_t transfer;    ///< media transfer ticks (saturating)
    std::uint32_t bus;         ///< SCSI bus ticks (saturating)
    std::uint32_t blocks;      ///< request length in blocks
    std::uint16_t disk;        ///< physical disk id
    std::uint8_t flags;        ///< bit 0 = write, bit 1 = degraded
    std::uint8_t outcome;      ///< TraceOutcome as an integer
    std::uint32_t unused;      ///< written as zero, ignored on read
                               ///< (older traces kept media-error
                               ///< and retry counts here)
    std::uint32_t reserved;    ///< zero; room for future fields
};

static_assert(sizeof(BinaryTraceRecord) == 64,
              "binary trace records are a stable 64-byte format");

/** BinaryTraceRecord::flags bits. */
enum : std::uint8_t {
    kTraceFlagWrite = 1u << 0,
    kTraceFlagDegraded = 1u << 1,
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
 * Writes sampled request records to a trace file. A
 * default-constructed tracer is disabled; open() arms it. The
 * recording side (shouldRecord / record) runs on the simulation host
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
     * configuration. fatal() if trace.sample is outside [0, 1] or
     * the file cannot be opened.
     */
    void open(const std::string& path, const TraceConfig& cfg = {});

    /**
     * Flush and close the output file (writing the binary marker if
     * no record did); the tracer becomes disabled. fatal() naming
     * the file if any write to it or its close failed. The
     * records()/sampledOut() counters survive close() and report the
     * finished run.
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
     * Pack one request record and write it to the file's stdio
     * buffer; no-op when disabled. Does not itself sample — pair
     * with shouldRecord().
     */
    void record(const RequestTraceEvent& ev);

    /** Records written since open(). */
    std::uint64_t records() const { return records_; }

    /** Sampling candidates skipped by the trace.sample draw. */
    std::uint64_t sampledOut() const { return sampledOut_; }

  private:
    void writeBinaryMarker();

    std::FILE* out_ = nullptr;
    std::unique_ptr<char[]> buf_; ///< out_'s stdio buffer
    std::string path_;           ///< for the close() failure report
    TraceConfig cfg_;
    Rng rng_;                    ///< dedicated sampling stream
    bool sampleAll_ = true;      ///< sample >= 1: skip the draw
    bool sampleNone_ = false;    ///< sample <= 0: skip the draw
    std::uint64_t records_ = 0;
    std::uint64_t sampledOut_ = 0;
    bool markerWritten_ = false; ///< the first record writes it
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
