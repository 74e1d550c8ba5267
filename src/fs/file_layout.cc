#include "fs/file_layout.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dtsim {

void
FileLayout::finalize()
{
    extentEnds.resize(extents.size());
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < extents.size(); ++i) {
        n += extents[i].count;
        extentEnds[i] = n;
    }
    blockCount = n;
}

void
FileLayout::outOfRange()
{
    panic("FileLayout: block index out of range");
}

std::size_t
FileLayout::extentIndex(std::uint64_t idx) const
{
    if (!extents.empty() && idx < extents.front().count)
        return 0;
    const auto it =
        std::upper_bound(extentEnds.begin(), extentEnds.end(), idx);
    if (it == extentEnds.end())
        outOfRange();
    return static_cast<std::size_t>(it - extentEnds.begin());
}

ArrayBlock
FileLayout::blockAt(std::uint64_t idx) const
{
    if (extentEnds.size() == extents.size()) {
        const std::size_t e = extentIndex(idx);
        const std::uint64_t base = e == 0 ? 0 : extentEnds[e - 1];
        return extents[e].start + (idx - base);
    }
    for (const FileExtent& e : extents) {
        if (idx < e.count)
            return e.start + idx;
        idx -= e.count;
    }
    outOfRange();
}

std::uint64_t
FileLayout::contiguousRun(std::uint64_t idx,
                          std::uint64_t max_count) const
{
    if (max_count == 0)
        return 0;
    if (extentEnds.size() != extents.size()) {
        // No index built: fall back to the block-by-block probe.
        const ArrayBlock lb = blockAt(idx);
        std::uint64_t run = 1;
        while (run < max_count && blockAt(idx + run) == lb + run)
            ++run;
        return run;
    }
    std::size_t e = extentIndex(idx);
    std::uint64_t run = extentEnds[e] - idx;
    // Merge extents that happen to abut physically (gap of zero).
    while (run < max_count && e + 1 < extents.size() &&
           extents[e + 1].start == extents[e].start + extents[e].count) {
        ++e;
        run += extents[e].count;
    }
    return std::min(run, max_count);
}

FileSystemImage::FileSystemImage(
    const std::vector<std::uint64_t>& file_sizes_bytes,
    const LayoutParams& params, std::uint64_t total_blocks)
    : params_(params)
{
    Rng rng(params.seed);
    files_.reserve(file_sizes_bytes.size());

    for (std::uint64_t size : file_sizes_bytes) {
        FileLayout f;
        f.sizeBytes = size;
        const std::uint64_t nblocks = size == 0
            ? 1
            : (size + params.blockSize - 1) / params.blockSize;

        FileExtent cur{nextFree_, 0};
        for (std::uint64_t i = 0; i < nblocks; ++i) {
            if (i > 0 && rng.chance(params.fragmentation)) {
                // Break contiguity: leave a hole and start a new
                // extent.
                f.extents.push_back(cur);
                nextFree_ += params.gapBlocks;
                cur = FileExtent{nextFree_, 0};
            }
            ++cur.count;
            ++nextFree_;
        }
        f.extents.push_back(cur);
        f.finalize();
        dataBlocks_ += nblocks;
        files_.push_back(std::move(f));
    }

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
    for (const FileLayout& f : files_) {
        PhysicalLoc prev{};
        bool first = true;
        for (const FileExtent& e : f.extents) {
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
    for (const FileLayout& f : files_) {
        const std::uint64_t n = f.blocks();
        if (n == 0)
            continue;
        blocks += n;
        ++runs;     // A file always starts a run.
        PhysicalLoc prev{};
        std::uint64_t i = 0;
        for (const FileExtent& e : f.extents) {
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
