#include "workload/trace.hh"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "sim/logging.hh"

namespace dtsim {

void
MissCounter::addTrace(const Trace& trace)
{
    for (const TraceRecord& r : trace)
        addRun(r.start, r.count);
}

void
MissCounter::addRun(ArrayBlock start, std::uint64_t n)
{
    // A local tally: distinct_ could alias the counters, which would
    // store it on every increment.
    std::size_t fresh = 0;
    while (n != 0) {
        std::uint64_t* counts = pageOf(start);
        const std::uint64_t first = start & (kPageBlocks - 1);
        const std::uint64_t span = std::min(n, kPageBlocks - first);
        for (std::uint64_t i = first; i < first + span; ++i)
            fresh += counts[i]++ == 0;
        start += span;
        n -= span;
    }
    distinct_ += fresh;
}

void
MissCounter::add(ArrayBlock block, std::uint64_t count)
{
    std::uint64_t& n = pageOf(block)[block & (kPageBlocks - 1)];
    distinct_ += n == 0 && count != 0;
    n += count;
}

std::uint64_t
MissCounter::count(ArrayBlock block) const
{
    const std::uint32_t* slot = slotOf_.find(block >> kPageShift);
    return slot ? pages_[*slot].counts[block & (kPageBlocks - 1)] : 0;
}

std::uint64_t*
MissCounter::pageOf(ArrayBlock block)
{
    const std::uint64_t number = block >> kPageShift;
    const auto [slot, added] = slotOf_.insert(
        number, static_cast<std::uint32_t>(pages_.size()));
    if (added)
        pages_.push_back(
            {number, std::make_unique<std::uint64_t[]>(kPageBlocks)});
    return pages_[*slot].counts.get();
}

std::vector<const MissCounter::Page*>
MissCounter::pagesByNumber() const
{
    std::vector<const Page*> order;
    order.reserve(pages_.size());
    for (const Page& p : pages_)
        order.push_back(&p);
    std::sort(order.begin(), order.end(),
              [](const Page* a, const Page* b) {
                  return a->number < b->number;
              });
    return order;
}

TraceStats
computeStats(const Trace& trace)
{
    TraceStats s;
    s.records = trace.size();
    bool ascending = true;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceRecord& r = trace[i];
        s.blocks += r.count;
        if (r.isWrite) {
            ++s.writeRecords;
            s.writeBlocks += r.count;
        }
        if (i == 0 || r.job > trace[i - 1].job)
            ++s.jobs;
        else if (r.job < trace[i - 1].job)
            ascending = false;
    }
    if (!ascending) {
        // An id recurs after a smaller one: count distinct ids from a
        // sorted copy of each run's id.
        std::vector<std::uint32_t> ids;
        for (std::size_t i = 0; i < trace.size(); ++i)
            if (i == 0 || trace[i].job != trace[i - 1].job)
                ids.push_back(trace[i].job);
        std::sort(ids.begin(), ids.end());
        s.jobs = static_cast<std::uint64_t>(
            std::unique(ids.begin(), ids.end()) - ids.begin());
    }
    if (s.records > 0) {
        s.writeRecordFraction =
            static_cast<double>(s.writeRecords) /
            static_cast<double>(s.records);
        s.meanRecordBlocks =
            static_cast<double>(s.blocks) /
            static_cast<double>(s.records);
    }
    return s;
}

std::vector<std::uint64_t>
accessCountsSorted(const Trace& trace, std::size_t top)
{
    MissCounter counts;
    counts.addTrace(trace);
    std::vector<std::uint64_t> out;
    out.reserve(counts.distinctBlocks());
    counts.forEachCount(
        [&](ArrayBlock, std::uint64_t n) { out.push_back(n); });
    std::sort(out.begin(), out.end(), std::greater<>());
    if (top != 0 && out.size() > top)
        out.resize(top);
    return out;
}

void
saveTrace(const Trace& trace, const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("saveTrace: cannot open %s", path.c_str());
    std::fprintf(f, "# dtsim-trace v1: start count write job\n");
    for (const TraceRecord& r : trace) {
        std::fprintf(f, "%" PRIu64 " %u %u %u\n", r.start, r.count,
                     r.isWrite ? 1u : 0u, r.job);
    }
    // A failed fprintf sets the stream's error flag; fclose reports
    // a failure to flush the last buffer.
    const bool failed = std::ferror(f) != 0;
    if (std::fclose(f) != 0 || failed)
        fatal("saveTrace: cannot write %s", path.c_str());
}

namespace {

/**
 * Parse one unsigned decimal field at `p`, skipping leading blanks.
 * Rejects signs, junk glued to the digits, and values above `max`.
 * @return false (leaving `p` unspecified) on any of those.
 */
bool
parseField(const char*& p, const char* end, std::uint64_t max,
           std::uint64_t& out)
{
    while (p < end && (*p == ' ' || *p == '\t'))
        ++p;
    const auto [next, ec] = std::from_chars(p, end, out);
    if (ec != std::errc() || out > max)
        return false;
    p = next;
    return p == end || *p == ' ' || *p == '\t';
}

} // namespace

std::string
traceRecordError(std::uint64_t start, std::uint64_t count,
                 std::uint64_t capacity_blocks)
{
    if (count == 0)
        return "zero-length record";
    if (start + count < start)
        return "record runs past the last block number";
    if (start + count > capacity_blocks)
        return "record runs past the end of the array (" +
               std::to_string(capacity_blocks) + " blocks)";
    return {};
}

Trace
loadTrace(const std::string& path, std::uint64_t capacity_blocks)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("loadTrace: cannot open " + path);
    Trace trace;
    std::string line;
    std::uint64_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto bad = [&](const std::string& why) {
            return std::runtime_error("loadTrace: " + path + ":" +
                                      std::to_string(lineno) + ": " +
                                      why + ": '" + line + "'");
        };
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        const std::size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#')
            continue;

        // "start count write job", all unsigned decimal.
        const char* p = line.data();
        const char* end = p + line.size();
        std::uint64_t start = 0, count = 0, write = 0, job = 0;
        if (!parseField(p, end, UINT64_MAX, start))
            throw bad("bad start block");
        if (!parseField(p, end, UINT32_MAX, count))
            throw bad("bad block count");
        if (!parseField(p, end, 1, write))
            throw bad("write flag must be 0 or 1");
        if (!parseField(p, end, UINT32_MAX, job))
            throw bad("bad job id");
        while (p < end && (*p == ' ' || *p == '\t'))
            ++p;
        if (p != end)
            throw bad("trailing characters after the job id");
        const std::string why =
            traceRecordError(start, count, capacity_blocks);
        if (!why.empty())
            throw bad(why);

        TraceRecord r;
        r.start = start;
        r.count = static_cast<std::uint32_t>(count);
        r.isWrite = write != 0;
        r.job = static_cast<std::uint32_t>(job);
        trace.push_back(r);
    }
    return trace;
}

} // namespace dtsim
