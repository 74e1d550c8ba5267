#include "workload/synthetic.hh"

#include "fs/coalescer.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace dtsim {

SyntheticWorkload
makeSynthetic(const SyntheticParams& params, std::uint64_t total_blocks)
{
    if (params.numFiles == 0 || params.fileSizeBytes == 0)
        fatal("makeSynthetic: need files with nonzero size");

    SyntheticWorkload w;
    w.params = params;

    std::vector<std::uint64_t> sizes(params.numFiles,
                                     params.fileSizeBytes);
    LayoutParams lp;
    lp.blockSize = params.blockSize;
    lp.fragmentation = params.fragmentation;
    lp.seed = params.seed ^ 0xf11eULL;
    w.image = std::make_unique<FileSystemImage>(sizes, lp,
                                                total_blocks);

    Rng rng(params.seed);
    ZipfSampler zipf(params.numFiles, params.zipfAlpha);

    // Popularity must not correlate with disk placement: permute the
    // rank -> file mapping. With groupedLayout, a directory's
    // members stay contiguous on disk (explicit grouping) and whole
    // directories are shuffled; otherwise individual files are.
    const std::uint64_t dir =
        std::max<std::uint64_t>(1, params.dirFiles);
    std::vector<FileId> perm(params.numFiles);
    for (std::uint64_t i = 0; i < params.numFiles; ++i)
        perm[i] = static_cast<FileId>(i);
    if (params.groupedLayout && dir > 1) {
        const std::uint64_t groups = params.numFiles / dir;
        for (std::uint64_t g = groups - 1; g > 0; --g) {
            const std::uint64_t o = rng.below(g + 1);
            for (std::uint64_t k = 0; k < dir; ++k)
                std::swap(perm[g * dir + k], perm[o * dir + k]);
        }
    } else {
        for (std::uint64_t i = params.numFiles - 1; i > 0; --i)
            std::swap(perm[i], perm[rng.below(i + 1)]);
    }

    // Emit one file's blocks as coalesced records.
    auto emit_file = [&](FileId file, bool is_write,
                         std::uint32_t job) {
        const FileLayout f = w.image->file(file);
        // Perfect prefetching requests the whole file; each extent
        // is a run of consecutive logical blocks, split into
        // requests by the coalescing model.
        for (std::size_t x = 0; x < f.extentCount(); ++x) {
            const FileExtent e = f.extent(x);
            ArrayBlock pos = e.start;
            for (std::uint64_t sz :
                 coalesceRun(e.count, params.coalesceProb, rng)) {
                TraceRecord rec;
                rec.start = pos;
                rec.count = static_cast<std::uint32_t>(sz);
                rec.isWrite = is_write;
                rec.job = job;
                w.trace.push_back(rec);
                pos += sz;
            }
        }
    };

    w.trace.reserve(params.numRequests * 2);
    for (std::uint64_t r = 0; r < params.numRequests; ++r) {
        const std::uint64_t rank = zipf.sample(rng);
        const bool is_write = rng.chance(params.writeProb);
        const auto job = static_cast<std::uint32_t>(r);

        if (dir > 1 && rng.chance(params.dirAccessProb)) {
            // Whole-directory access: every member file in order.
            const std::uint64_t first = rank / dir * dir;
            for (std::uint64_t k = 0;
                 k < dir && first + k < params.numFiles; ++k)
                emit_file(perm[first + k], is_write, job);
        } else {
            emit_file(perm[rank], is_write, job);
        }
    }
    return w;
}

} // namespace dtsim
