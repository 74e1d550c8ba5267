#include "stats/stats_sink.hh"

#include "sim/logging.hh"

namespace dtsim {

StatsSink::Writer
StatsSink::open(const char* what) const
{
    Writer w;
    if (os_) {
        w.os_ = os_;
        return w;
    }
    if (path_.empty())
        return w;
    w.owned_ = std::make_unique<std::ofstream>(path_);
    if (!*w.owned_)
        fatal("%s: cannot write stats file '%s'", what,
              path_.c_str());
    w.os_ = w.owned_.get();
    w.what_ = what;
    w.path_ = path_;
    return w;
}

void
StatsSink::Writer::close()
{
    if (!owned_)
        return;
    owned_->close();
    if (owned_->fail())
        fatal("%s: cannot write stats file '%s'", what_, path_.c_str());
    owned_.reset();
    os_ = nullptr;
}

} // namespace dtsim
