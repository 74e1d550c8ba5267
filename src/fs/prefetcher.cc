#include "fs/prefetcher.hh"

#include <algorithm>
#include <cassert>
#include <limits>

#include "sim/logging.hh"

namespace dtsim {

Prefetcher::Prefetcher(std::size_t files, PrefetchMode mode,
                       std::uint32_t max_blocks)
    : mode_(mode), maxBlocks_(max_blocks),
      state_(mode == PrefetchMode::Sequential ? files : 0)
{
}

void
Prefetcher::reset()
{
    std::fill(state_.begin(), state_.end(), FileState{});
}

std::uint64_t
Prefetcher::plan(std::uint32_t file, std::uint64_t start,
                 std::uint64_t count, std::uint64_t file_blocks)
{
    const std::uint64_t end = start + count;
    const std::uint64_t left = end < file_blocks ? file_blocks - end : 0;

    switch (mode_) {
      case PrefetchMode::None:
        return 0;
      case PrefetchMode::Perfect:
        return left;
      case PrefetchMode::Sequential:
        break;
    }

    assert(file < state_.size());
    FileState& st = state_[file];
    if (start == 0 || start == st.nextExpected) {
        // Sequential: grow the window (doubling from one block).
        st.window = st.window == 0
            ? 1
            : std::min<std::uint32_t>(maxBlocks_, st.window * 2);
    } else {
        // Random access: collapse.
        st.window = 0;
    }
    const std::uint64_t pf =
        std::min<std::uint64_t>(st.window, left);
    // The prefetched blocks are consumed before the next read
    // reaches the disk, so the sequential pattern continues there.
    const std::uint64_t next = end + pf;
    if (next > std::numeric_limits<std::uint32_t>::max())
        panic("Prefetcher: file %u access ends past block 2^32",
              file);
    st.nextExpected = static_cast<std::uint32_t>(next);
    return pf;
}

} // namespace dtsim
