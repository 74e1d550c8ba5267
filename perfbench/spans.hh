/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * The driver opens one span around each call it makes into a library
 * layer (workload generation, FOR bitmaps, the HDC plan, a replay, a
 * sweep) under a root span per iteration. Spans stay in memory until
 * the run ends, when they are written as JSON lines. A layer's self
 * time is its span's duration minus the part its child spans cover.
 *
 * Single-threaded: every span is opened and closed on the driver's
 * main thread, so the open-span stack gives each span its parent.
 */

#ifndef DTSIM_PERFBENCH_SPANS_HH
#define DTSIM_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** One closed span; times are nanoseconds since the tracer's epoch. */
struct SpanRecord
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int id = 0;
    int parent = -1;  ///< -1 for a root span.
    int run = 0;      ///< Iteration the span belongs to.
};

class Tracer
{
  public:
    Tracer();

    /** Open a span under the innermost open span; returns its id. */
    int begin(const char* name, int run);

    /** Close span `id`, which must be the innermost open span. */
    void end(int id);

    const std::vector<SpanRecord>& spans() const { return spans_; }

    /** Seconds of self time per span name within iteration `run`. */
    std::map<std::string, double> selfSeconds(int run) const;

    /** Write every span as one JSON object per line. */
    bool writeJsonLines(const std::string& path) const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    std::vector<SpanRecord> spans_;
    std::vector<int> open_;
};

/** RAII span; a no-op when constructed with a null tracer. */
class Span
{
  public:
    Span(Tracer* tracer, const char* name, int run)
        : tracer_(tracer), id_(tracer ? tracer->begin(name, run) : -1)
    {}

    ~Span()
    {
        if (tracer_)
            tracer_->end(id_);
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    Tracer* tracer_;
    int id_;
};

} // namespace perfbench

#endif // DTSIM_PERFBENCH_SPANS_HH
