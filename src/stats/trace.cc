#include "stats/trace.hh"

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

/**
 * Bytes of the trace file's stdio buffer. Records are written on the
 * simulation thread, so a buffer well past the default 4 KiB keeps
 * write system calls rare: 4096 records per call.
 */
constexpr std::size_t kTraceBufferBytes = 256 * 1024;

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
    rec.unused = 0;
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
        ",\"bus\":%" PRIu64 ",\"lat\":%" PRIu64 ",\"degraded\":%d}\n",
        rec.completed, static_cast<std::uint32_t>(rec.disk), rec.lba,
        rec.blocks, (rec.flags & kTraceFlagWrite) ? 1 : 0,
        traceOutcomeName(static_cast<TraceOutcome>(rec.outcome)),
        rec.queue, static_cast<std::uint64_t>(rec.seek),
        static_cast<std::uint64_t>(rec.rotation),
        static_cast<std::uint64_t>(rec.transfer),
        static_cast<std::uint64_t>(rec.bus), rec.latency,
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
    buf_ = std::make_unique<char[]>(kTraceBufferBytes);
    std::setvbuf(out_, buf_.get(), _IOFBF, kTraceBufferBytes);
    path_ = path;
    cfg_ = cfg;
    sampleAll_ = cfg.sample >= 1.0;
    sampleNone_ = cfg.sample <= 0.0;
    rng_ = Rng(cfg.seed);
    records_ = 0;
    sampledOut_ = 0;
    markerWritten_ = false;
}

void
RequestTracer::close()
{
    if (!out_)
        return;
    // An empty binary trace still needs its marker so readers can
    // identify the format.
    if (!markerWritten_)
        writeBinaryMarker();
    const bool failed = std::ferror(out_) != 0;
    const bool closed = std::fclose(out_) == 0;
    out_ = nullptr;
    buf_.reset();
    if (failed || !closed)
        fatal("cannot write trace file %s", path_.c_str());
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
RequestTracer::record(const RequestTraceEvent& ev)
{
    if (!out_)
        return;
    if (!markerWritten_)
        writeBinaryMarker();
    // A short write sets the stream's error flag, which close()
    // reports.
    const BinaryTraceRecord rec = packTraceRecord(ev);
    std::fwrite(&rec, sizeof(rec), 1, out_);
    ++records_;
}

void
RequestTracer::writeBinaryMarker()
{
    std::fwrite(kBinaryTraceMarker, 1, std::strlen(kBinaryTraceMarker),
                out_);
    std::fputc('\n', out_);
    markerWritten_ = true;
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
