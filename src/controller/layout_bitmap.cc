#include "controller/layout_bitmap.hh"

#include <algorithm>
#include <bit>

namespace dtsim {

LayoutBitmap::LayoutBitmap(std::uint64_t total_blocks)
    : totalBlocks_(total_blocks)
{
    // Reserve the full disk's words, touch none: untouched capacity
    // costs neither time nor resident memory, and growth never
    // reallocates. It also keeps the heap shaped as full-size
    // bitmaps left it. Without the reservation, perfbench web-online
    // (which rebuilds its bitmaps every iteration) let glibc trim and
    // re-fault ~12 MB of heap per iteration, 4080 minor faults against
    // 815, for +15% setup_s on a 4-vCPU Xeon VM.
    words_.reserve((total_blocks + 63) / 64);
}

void
LayoutBitmap::grow(std::uint64_t words)
{
    if (words > words_.size())
        words_.resize(words, 0);
}

void
LayoutBitmap::set(BlockNum block, bool continuation)
{
    if (block >= totalBlocks_)
        return;
    const std::uint64_t mask = 1ULL << (block % 64);
    if (continuation) {
        grow(block / 64 + 1);
        words_[block / 64] |= mask;
    } else if (block / 64 < words_.size()) {
        words_[block / 64] &= ~mask;
    }
}

void
LayoutBitmap::setRange(BlockNum first, std::uint64_t count)
{
    if (first >= totalBlocks_ || count == 0)
        return;
    const BlockNum last = first + std::min(count, totalBlocks_ - first) - 1;
    grow(last / 64 + 1);
    const std::uint64_t lo = ~0ULL << (first % 64);
    const std::uint64_t hi = ~0ULL >> (63 - last % 64);
    if (first / 64 == last / 64) {
        words_[first / 64] |= lo & hi;
        return;
    }
    words_[first / 64] |= lo;
    std::fill(words_.begin() + static_cast<std::ptrdiff_t>(first / 64 + 1),
              words_.begin() + static_cast<std::ptrdiff_t>(last / 64),
              ~0ULL);
    words_[last / 64] |= hi;
}

bool
LayoutBitmap::get(BlockNum block) const
{
    // Bits past the end of the disk are never set, so they are never
    // stored either.
    if (block / 64 >= words_.size())
        return false;
    return (words_[block / 64] >> (block % 64)) & 1ULL;
}

std::uint64_t
LayoutBitmap::countRun(BlockNum block, std::uint64_t max_count) const
{
    std::uint64_t n = 0;
    std::uint64_t w = block / 64;
    unsigned shift = static_cast<unsigned>(block % 64);
    while (n < max_count && w < words_.size()) {
        // The shift brings in 0s from the top, so a run stops at the
        // word's end unless the word is all 1s from `shift` on.
        const auto ones = static_cast<unsigned>(
            std::countr_one(words_[w] >> shift));
        n += ones;
        if (ones < 64 - shift)
            break;
        ++w;
        shift = 0;
    }
    return std::min(n, max_count);
}

std::uint64_t
LayoutBitmap::popcount() const
{
    std::uint64_t n = 0;
    for (std::uint64_t w : words_)
        n += static_cast<std::uint64_t>(std::popcount(w));
    return n;
}

} // namespace dtsim
