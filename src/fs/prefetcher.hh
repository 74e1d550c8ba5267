/**
 * @file
 * The operating system's sequential prefetching model (Section 2.3).
 *
 * UNIX-like sequential prefetch: each file tracks its last accessed
 * block; sequential accesses grow the prefetch window (doubling from
 * one block) up to a maximum (64 KB in Linux); a non-sequential access
 * collapses it to zero. A "perfect" mode prefetches to the end of the
 * file, which is what Section 6.2's synthetic experiments assume.
 */

#ifndef DTSIM_FS_PREFETCHER_HH
#define DTSIM_FS_PREFETCHER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dtsim {

/** Prefetcher operating mode. */
enum class PrefetchMode
{
    None,       ///< No OS prefetching.
    Sequential, ///< Adaptive window, UNIX-style.
    Perfect,    ///< Prefetch to end of file (Section 6.2).
};

/** Per-file sequential prefetch planner. */
class Prefetcher
{
  public:
    /**
     * @param files File ids the planner sees are in [0, files).
     * @param mode Operating mode.
     * @param max_blocks Window cap in blocks (16 = 64 KB default).
     */
    explicit Prefetcher(std::size_t files,
                        PrefetchMode mode = PrefetchMode::Sequential,
                        std::uint32_t max_blocks = 16);

    /**
     * Plan the prefetch for an access to file `file` covering file
     * blocks [start, start+count), where the file has `file_blocks`
     * blocks total.
     *
     * @return Number of file blocks to read beyond the access.
     */
    std::uint64_t plan(std::uint32_t file, std::uint64_t start,
                       std::uint64_t count,
                       std::uint64_t file_blocks);

    /** Drop all per-file history. */
    void reset();

  private:
    /** Kept to 8 bytes: files are shorter than 2^32 blocks. */
    struct FileState
    {
        std::uint32_t nextExpected = 0;
        std::uint32_t window = 0;
    };

    PrefetchMode mode_;
    std::uint32_t maxBlocks_;

    /**
     * Window state indexed by file id, read once per generated
     * access: one load, no hashing. Sized from the file count, and
     * only in Sequential mode.
     */
    std::vector<FileState> state_;
};

} // namespace dtsim

#endif // DTSIM_FS_PREFETCHER_HH
