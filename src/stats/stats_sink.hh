/**
 * @file
 * StatsSink: one destination descriptor for every stats text output.
 *
 * Runner options used to carry a file path *and* an optional ostream
 * pointer, and every writer (final dump, periodic snapshots, fault
 * snapshots, tests) special-cased the pair. A StatsSink is a small
 * copyable value naming exactly one destination -- a file, a borrowed
 * ostream, or nothing -- and open() hands back the single Writer all
 * of them share.
 */

#ifndef DTSIM_STATS_STATS_SINK_HH
#define DTSIM_STATS_STATS_SINK_HH

#include <fstream>
#include <memory>
#include <ostream>
#include <string>

namespace dtsim {

/** Where stats text goes: a file, a borrowed stream, or nowhere. */
class StatsSink
{
  public:
    /** Disabled sink: open() yields a Writer that tests false. */
    StatsSink() = default;

    /**
     * Sink writing to `path`; an empty path means disabled, so
     * config fields can be forwarded unconditionally.
     */
    static StatsSink
    file(std::string path)
    {
        StatsSink s;
        s.path_ = std::move(path);
        return s;
    }

    /** Sink borrowing `os`; the stream must outlive every Writer. */
    static StatsSink
    stream(std::ostream& os)
    {
        StatsSink s;
        s.os_ = &os;
        return s;
    }

    /** True when output is wanted (file path set or stream bound). */
    bool
    enabled() const
    {
        return os_ != nullptr || !path_.empty();
    }

    /** The file path ("" for stream/null sinks); for reporting. */
    const std::string&
    path() const
    {
        return path_;
    }

    /**
     * An open destination. Move-only: owns the ofstream for file
     * sinks, borrows the stream otherwise. All writers obtained from
     * one sink append to the same logical output; open a file sink
     * once per run and reuse the Writer for every section.
     */
    class Writer
    {
      public:
        Writer() = default;
        Writer(Writer&&) = default;
        Writer& operator=(Writer&&) = default;

        /** False for a disabled sink: skip the output section. */
        explicit operator bool() const { return os_ != nullptr; }

        /** The destination; only valid when the Writer tests true. */
        std::ostream&
        os()
        {
            return *os_;
        }

        /**
         * Flush and close a file destination, fatal() naming the file
         * if any write to it failed (a full disk, /dev/full). The
         * Writer then tests false. Nothing to do for a borrowed
         * stream or a disabled sink.
         */
        void close();

      private:
        friend class StatsSink;
        std::unique_ptr<std::ofstream> owned_;
        std::ostream* os_ = nullptr;
        const char* what_ = "";
        std::string path_;
    };

    /**
     * Open the destination. `what` names the output in the fatal()
     * raised when a file sink cannot be created.
     */
    Writer open(const char* what) const;

  private:
    std::string path_;
    std::ostream* os_ = nullptr;
};

} // namespace dtsim

#endif // DTSIM_STATS_STATS_SINK_HH
