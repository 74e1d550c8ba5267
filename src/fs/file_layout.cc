#include "fs/file_layout.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dtsim {

void
FileLayout::outOfRange()
{
    panic("FileLayout: block index out of range");
}

std::size_t
FileLayout::extentIndex(std::uint64_t idx) const
{
    if (n_ != 0 && idx < ext_[0].end)
        return 0;
    const ArenaExtent* it = std::upper_bound(
        ext_, ext_ + n_, idx,
        [](std::uint64_t i, const ArenaExtent& e) { return i < e.end; });
    if (it == ext_ + n_)
        outOfRange();
    return static_cast<std::size_t>(it - ext_);
}

std::uint64_t
FileLayout::contiguousRun(std::uint64_t idx,
                          std::uint64_t max_count) const
{
    if (max_count == 0)
        return 0;
    std::size_t e = extentIndex(idx);
    std::uint64_t run = ext_[e].end - idx;
    // Merge extents that happen to abut physically (gap of zero).
    while (run < max_count && abutsNext(e)) {
        ++e;
        run += extent(e).count;
    }
    return std::min(run, max_count);
}

FileSystemImage::FileSystemImage(
    const std::vector<std::uint64_t>& file_sizes_bytes,
    const LayoutParams& params, std::uint64_t total_blocks)
    : params_(params)
{
    // Lay the files out twice from the same seed: the first pass
    // only counts extents, so the arena is allocated once at its exact
    // size. Growing it instead would free ever larger buffers while
    // the image is built, and glibc raises its mmap threshold to the
    // largest one freed, leaving the buffers that generation later
    // frees on the heap, still resident.
    const auto lay_out = [&](auto&& emit) {
        Rng rng(params.seed);
        ArrayBlock next = 0;
        for (std::uint64_t size : file_sizes_bytes) {
            const std::uint64_t nblocks = size == 0
                ? 1
                : (size + params.blockSize - 1) / params.blockSize;
            ArrayBlock start = next;
            for (std::uint64_t i = 0; i < nblocks; ++i) {
                if (i > 0 && rng.chance(params.fragmentation)) {
                    // Break contiguity: leave a hole and start a new
                    // extent.
                    emit(ArenaExtent{start, i}, false);
                    next += params.gapBlocks;
                    start = next;
                }
                ++next;
            }
            emit(ArenaExtent{start, nblocks}, true);
        }
        return next;
    };
    std::size_t extents = 0;
    lay_out([&](const ArenaExtent&, bool) { ++extents; });
    extents_.reserve(extents);
    fileFirst_.reserve(file_sizes_bytes.size() + 1);
    fileFirst_.push_back(0);
    nextFree_ = lay_out([&](const ArenaExtent& e, bool file_done) {
        extents_.push_back(e);
        if (file_done) {
            fileFirst_.push_back(extents_.size());
            dataBlocks_ += e.end;
        }
    });

    if (nextFree_ > total_blocks)
        fatal("FileSystemImage: files (%llu blocks) exceed capacity "
              "(%llu blocks)",
              static_cast<unsigned long long>(nextFree_),
              static_cast<unsigned long long>(total_blocks));
}

std::vector<LayoutBitmap>
FileSystemImage::buildBitmaps(const StripingMap& striping) const
{
    const std::uint64_t per_disk =
        striping.totalBlocks() / striping.disks();
    std::vector<LayoutBitmap> maps;
    maps.reserve(striping.disks());
    for (unsigned d = 0; d < striping.disks(); ++d)
        maps.emplace_back(per_disk);

    // Walk each extent one striping-unit chunk at a time: the blocks
    // of a chunk sit on consecutive local blocks of one disk, so all
    // but the first continue their predecessor. The first continues
    // it only if the previous chunk (of this extent or the one
    // before) ended on the same disk, one local block earlier.
    const std::uint64_t unit = striping.unitBlocks();
    for (FileId f = 0; f < fileCount(); ++f) {
        const FileLayout fl = file(f);
        PhysicalLoc prev{};
        bool first = true;
        for (std::size_t x = 0; x < fl.extentCount(); ++x) {
            const FileExtent e = fl.extent(x);
            const ArrayBlock end = e.start + e.count;
            for (ArrayBlock lb = e.start; lb < end;) {
                const std::uint64_t n =
                    std::min(end - lb, unit - lb % unit);
                const PhysicalLoc loc = striping.toPhysical(lb);
                const bool continues = !first &&
                    loc.disk == prev.disk && loc.block == prev.block + 1;
                if (continues)
                    maps[loc.disk].setRange(loc.block, n);
                else
                    maps[loc.disk].setRange(loc.block + 1, n - 1);
                prev = PhysicalLoc{loc.disk, loc.block + n - 1};
                first = false;
                lb += n;
            }
        }
    }
    return maps;
}

double
FileSystemImage::averageSequentialRun(
    const StripingMap& striping) const
{
    std::uint64_t blocks = 0;
    std::uint64_t runs = 0;
    for (FileId f = 0; f < fileCount(); ++f) {
        const FileLayout fl = file(f);
        const std::uint64_t n = fl.blocks();
        if (n == 0)
            continue;
        blocks += n;
        ++runs;     // A file always starts a run.
        PhysicalLoc prev{};
        std::uint64_t i = 0;
        for (std::size_t x = 0; x < fl.extentCount(); ++x) {
            const FileExtent e = fl.extent(x);
            for (std::uint64_t off = 0; off < e.count; ++off, ++i) {
                const PhysicalLoc loc =
                    striping.toPhysical(e.start + off);
                if (i > 0 && !(loc.disk == prev.disk &&
                               loc.block == prev.block + 1)) {
                    ++runs;
                }
                prev = loc;
            }
        }
    }
    return runs == 0
        ? 0.0
        : static_cast<double>(blocks) / static_cast<double>(runs);
}

} // namespace dtsim
