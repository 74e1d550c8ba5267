#include "spans.hh"

#include <fstream>

namespace perfbench {

namespace {

std::int64_t
nanosSince(std::chrono::steady_clock::time_point epoch)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

} // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

int
Tracer::begin(const char* name, int run)
{
    SpanRecord s;
    s.name = name;
    s.id = static_cast<int>(spans_.size());
    s.parent = open_.empty() ? -1 : open_.back();
    s.run = run;
    s.startNs = nanosSince(epoch_);
    spans_.push_back(std::move(s));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
}

void
Tracer::end(int id)
{
    spans_[id].endNs = nanosSince(epoch_);
    open_.pop_back();
}

std::map<std::string, double>
Tracer::selfSeconds(int run) const
{
    std::map<std::int64_t, std::int64_t> child_ns;  // parent id -> ns
    for (const SpanRecord& s : spans_)
        if (s.run == run && s.parent >= 0)
            child_ns[s.parent] += s.endNs - s.startNs;

    std::map<std::string, double> self;
    for (const SpanRecord& s : spans_) {
        if (s.run != run)
            continue;
        const auto it = child_ns.find(s.id);
        const std::int64_t ns = s.endNs - s.startNs -
                                (it == child_ns.end() ? 0 : it->second);
        self[s.name] += static_cast<double>(ns) * 1e-9;
    }
    return self;
}

bool
Tracer::writeJsonLines(const std::string& path) const
{
    std::ofstream os(path);
    for (const SpanRecord& s : spans_) {
        os << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"run\":" << s.run
           << ",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
           << "}\n";
    }
    return static_cast<bool>(os.flush());
}

} // namespace perfbench
