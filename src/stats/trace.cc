#include "stats/trace.hh"

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <limits>

#include "sim/logging.hh"

namespace dtsim {

const char kBinaryTraceMarker[] = "#dtsim-binary-trace v1 record=64";

const char*
traceOutcomeName(TraceOutcome o)
{
    switch (o) {
      case TraceOutcome::Media: return "media";
      case TraceOutcome::Cache: return "cache";
      case TraceOutcome::Hdc: return "hdc";
    }
    panic("traceOutcomeName: bad outcome %d", static_cast<int>(o));
}

namespace {

std::uint32_t
sat32(std::uint64_t v)
{
    return v > std::numeric_limits<std::uint32_t>::max()
        ? std::numeric_limits<std::uint32_t>::max()
        : static_cast<std::uint32_t>(v);
}

std::uint16_t
sat16(std::uint64_t v)
{
    return v > std::numeric_limits<std::uint16_t>::max()
        ? std::numeric_limits<std::uint16_t>::max()
        : static_cast<std::uint16_t>(v);
}

} // namespace

BinaryTraceRecord
packTraceRecord(const RequestTraceEvent& ev)
{
    BinaryTraceRecord rec{};
    rec.completed = ev.completed;
    rec.lba = ev.lba;
    rec.latency = ev.latency;
    rec.queue = ev.queue;
    rec.seek = sat32(ev.seek);
    rec.rotation = sat32(ev.rotation);
    rec.transfer = sat32(ev.transfer);
    rec.bus = sat32(ev.bus);
    rec.blocks = ev.blocks;
    rec.disk = sat16(ev.disk);
    rec.flags = static_cast<std::uint8_t>(
        (ev.isWrite ? kTraceFlagWrite : 0) |
        (ev.degraded ? kTraceFlagDegraded : 0));
    rec.outcome = static_cast<std::uint8_t>(ev.outcome);
    rec.faults = sat16(ev.faults);
    rec.retries = sat16(ev.retries);
    rec.reserved = 0;
    return rec;
}

RequestTraceEvent
unpackTraceRecord(const BinaryTraceRecord& rec)
{
    RequestTraceEvent ev;
    ev.completed = rec.completed;
    ev.disk = rec.disk;
    ev.lba = rec.lba;
    ev.blocks = rec.blocks;
    ev.isWrite = (rec.flags & kTraceFlagWrite) != 0;
    ev.outcome = static_cast<TraceOutcome>(rec.outcome);
    ev.queue = rec.queue;
    ev.seek = rec.seek;
    ev.rotation = rec.rotation;
    ev.transfer = rec.transfer;
    ev.bus = rec.bus;
    ev.latency = rec.latency;
    ev.faults = rec.faults;
    ev.retries = rec.retries;
    ev.degraded = (rec.flags & kTraceFlagDegraded) != 0;
    return ev;
}

/**
 * Field order, separators, and integer rendering are the stable schema
 * documented in docs/METRICS.md; tests/golden/synthetic_300_trace.jsonl
 * pins the bytes.
 */
std::string
traceRecordToJsonl(const BinaryTraceRecord& rec)
{
    char buf[320];
    const int n = std::snprintf(
        buf, sizeof(buf),
        "{\"t\":%" PRIu64 ",\"disk\":%" PRIu32 ",\"lba\":%" PRIu64
        ",\"n\":%" PRIu32 ",\"w\":%d,\"how\":\"%s\",\"q\":%" PRIu64
        ",\"seek\":%" PRIu64 ",\"rot\":%" PRIu64 ",\"xfer\":%" PRIu64
        ",\"bus\":%" PRIu64 ",\"lat\":%" PRIu64 ",\"faults\":%" PRIu32
        ",\"retries\":%" PRIu32 ",\"degraded\":%d}\n",
        rec.completed, static_cast<std::uint32_t>(rec.disk), rec.lba,
        rec.blocks, (rec.flags & kTraceFlagWrite) ? 1 : 0,
        traceOutcomeName(static_cast<TraceOutcome>(rec.outcome)),
        rec.queue, static_cast<std::uint64_t>(rec.seek),
        static_cast<std::uint64_t>(rec.rotation),
        static_cast<std::uint64_t>(rec.transfer),
        static_cast<std::uint64_t>(rec.bus), rec.latency,
        static_cast<std::uint32_t>(rec.faults),
        static_cast<std::uint32_t>(rec.retries),
        (rec.flags & kTraceFlagDegraded) ? 1 : 0);
    if (n <= 0 || static_cast<std::size_t>(n) >= sizeof(buf))
        panic("trace record formatting overflowed");
    return std::string(buf, static_cast<std::size_t>(n));
}

void
RequestTracer::open(const std::string& path, const TraceConfig& cfg)
{
    if (cfg.sample < 0.0 || cfg.sample > 1.0)
        fatal("trace.sample must be in [0, 1], got %g", cfg.sample);
    close();
    out_ = std::fopen(path.c_str(), "wb");
    if (!out_)
        fatal("cannot open trace file %s for writing", path.c_str());
    path_ = path;
    cfg_ = cfg;
    sampleAll_ = cfg.sample >= 1.0;
    sampleNone_ = cfg.sample <= 0.0;
    rng_ = Rng(cfg.seed);
    records_ = 0;
    sampledOut_ = 0;
    droppedFinal_ = 0;
    markerWritten_ = false;
    const std::uint64_t capacity =
        cfg.bufferRecords ? cfg.bufferRecords : 65536;
    ring_ = std::make_unique<TraceRing>(
        static_cast<std::size_t>(capacity));
    // Wake the parked writer once this many records are queued: a
    // write batch when the ring is big enough, half the ring when it
    // is not (so small test rings still drain before they overflow).
    wakeBatch_ = std::min<std::size_t>(256, ring_->capacity() / 2);
    if (wakeBatch_ == 0)
        wakeBatch_ = 1;
    stop_.store(false, std::memory_order_relaxed);
    parked_.store(false, std::memory_order_relaxed);
    writer_ = std::thread([this] { writerLoop(); });
}

void
RequestTracer::close()
{
    if (!out_)
        return;
    stop_.store(true, std::memory_order_release);
    // The writer may be parked with sub-batch records still queued:
    // wake it unconditionally so it sees stop_, drains, and exits.
    parked_.store(false, std::memory_order_release);
    parked_.notify_one();
    writer_.join();
    // An empty binary trace still needs its marker so readers can
    // identify the format.
    if (!markerWritten_)
        writeBinaryMarker();
    droppedFinal_ = ring_->dropped();
    ring_.reset();
    const bool failed = std::ferror(out_) != 0;
    const bool closed = std::fclose(out_) == 0;
    out_ = nullptr;
    if (failed || !closed)
        fatal("cannot write trace file %s", path_.c_str());
}

std::uint64_t
RequestTracer::dropped() const
{
    // Before close() the producer-owned ring counter may lag; after
    // close() the captured value is exact.
    return ring_ ? ring_->dropped() : droppedFinal_;
}

void
RequestTracer::writePreamble(const std::string& text)
{
    if (!out_ || text.empty())
        return;
    if (text.front() != '#')
        panic("trace preamble must be '#' comment lines");
    std::fwrite(text.data(), 1, text.size(), out_);
    if (text.back() != '\n')
        std::fputc('\n', out_);
}

void
RequestTracer::enqueueRecord(const RequestTraceEvent& ev)
{
    // push() never blocks: a full ring drops the record (counted by
    // the ring) instead of stalling the simulation thread.
    if (ring_->push(packTraceRecord(ev)))
        ++records_;
    // Waking only at wakeBatch_ keeps wakeups (and their context
    // switches) amortized over whole write batches. The exchange is
    // a read-modify-write on parked_, like the writer's park, so the
    // two are totally ordered: either it reads the writer's `true`
    // and wakes it, or it comes first and its release hands this push
    // to the writer's acquire, whose recheck then sees the record. A
    // record can never be stranded behind a parked writer.
    if (ring_->size() >= wakeBatch_ &&
        parked_.exchange(false, std::memory_order_acq_rel))
        parked_.notify_one();
}

void
RequestTracer::writeBinaryMarker()
{
    std::fwrite(kBinaryTraceMarker, 1, std::strlen(kBinaryTraceMarker),
                out_);
    std::fputc('\n', out_);
    markerWritten_ = true;
}

void
RequestTracer::writeBatch(const BinaryTraceRecord* recs, std::size_t n)
{
    if (!markerWritten_)
        writeBinaryMarker();
    std::fwrite(recs, sizeof(BinaryTraceRecord), n, out_);
}

void
RequestTracer::writerLoop()
{
    BinaryTraceRecord batch[256];
    constexpr std::size_t kBatch = sizeof(batch) / sizeof(batch[0]);
    for (;;) {
        const std::size_t n = ring_->pop(batch, kBatch);
        if (n) {
            writeBatch(batch, n);
            continue;
        }
        if (stop_.load(std::memory_order_acquire)) {
            // The acquire synchronizes with the producer's release
            // store in close(), so every record pushed before the
            // stop request is now visible: drain and exit.
            std::size_t m;
            while ((m = ring_->pop(batch, kBatch)) != 0)
                writeBatch(batch, m);
            return;
        }
        // Ring drained: park until the producer accumulates a wake
        // batch or close() raises stop_. Parking is a read-modify-
        // write that pairs with the producer's (enqueueRecord) and
        // with close()'s release store, so a push or stop between our
        // park and the recheck below is always caught by one side.
        // wait() can return spuriously with parked_ still true; the
        // loop simply comes back around, re-parks, and waits again.
        parked_.exchange(true, std::memory_order_acq_rel);
        if (ring_->size() != 0 ||
            stop_.load(std::memory_order_acquire)) {
            parked_.store(false, std::memory_order_relaxed);
            continue;
        }
        parked_.wait(true, std::memory_order_acquire);
    }
}

bool
readTraceFile(const std::string& path,
              std::vector<RequestTraceEvent>& out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        warn("cannot open trace file %s", path.c_str());
        return false;
    }
    // '#' preamble lines (the effective config) up to the marker; the
    // stream is then positioned right past the marker's '\n'.
    std::string line;
    std::size_t lineno = 0;
    for (;;) {
        if (!std::getline(in, line)) {
            warn("%s: not a binary trace: no \"%s\" line", path.c_str(),
                 kBinaryTraceMarker);
            return false;
        }
        ++lineno;
        if (line == kBinaryTraceMarker)
            break;
        if (line.empty() || line.front() != '#') {
            warn("%s:%zu: not a binary trace: expected '#' preamble "
                 "lines and the \"%s\" line", path.c_str(), lineno,
                 kBinaryTraceMarker);
            return false;
        }
    }
    constexpr std::uint8_t kKnownFlags =
        kTraceFlagWrite | kTraceFlagDegraded;
    BinaryTraceRecord rec;
    while (in.read(reinterpret_cast<char*>(&rec), sizeof(rec))) {
        const char* bad = nullptr;
        if (rec.outcome > static_cast<std::uint8_t>(TraceOutcome::Hdc))
            bad = "unknown outcome";
        else if (rec.flags & ~kKnownFlags)
            bad = "unknown flag bits";
        else if (rec.reserved != 0)
            bad = "nonzero reserved word";
        if (bad) {
            warn("%s: binary trace record %zu: %s", path.c_str(),
                 out.size(), bad);
            return false;
        }
        out.push_back(unpackTraceRecord(rec));
    }
    if (in.gcount() != 0) {
        warn("%s: binary trace record %zu truncated (%zd of %zu bytes)",
             path.c_str(), out.size(),
             static_cast<std::ptrdiff_t>(in.gcount()), sizeof(rec));
        return false;
    }
    return true;
}

} // namespace dtsim
