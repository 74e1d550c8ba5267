#include "config/sim_config.hh"

#include <sstream>
#include <utility>

#include "sim/logging.hh"

namespace dtsim {

using config::EnumTable;
using config::ParamRegistry;

const EnumTable<WorkloadKind>&
workloadKindTokens()
{
    static const EnumTable<WorkloadKind> t{{
        {"synthetic", WorkloadKind::Synthetic},
        {"web", WorkloadKind::Web},
        {"proxy", WorkloadKind::Proxy},
        {"file", WorkloadKind::File},
    }};
    return t;
}

ServerModelParams
serverPreset(WorkloadKind kind, double scale)
{
    switch (kind) {
      case WorkloadKind::Web: return webServerParams(scale);
      case WorkloadKind::Proxy: return proxyServerParams(scale);
      case WorkloadKind::File: return fileServerParams(scale);
      case WorkloadKind::Synthetic: break;
    }
    panic("serverPreset: not a server workload");
}

const EnumTable<SystemKind>&
systemKindTokens()
{
    static const EnumTable<SystemKind> t{{
        {"segm", SystemKind::Segm},
        {"block", SystemKind::Block},
        {"nora", SystemKind::NoRA},
        {"for", SystemKind::FOR},
    }};
    return t;
}

// Legacy table of system.hdc_policy. "pinned" is listed first so
// EnumTable::format() keeps rendering Oracle as "pinned" in legacy
// keys -- pre-redesign effective-config headers stay byte-identical.
const EnumTable<HdcPolicy>&
hdcPolicyTokens()
{
    static const EnumTable<HdcPolicy> t{{
        {"pinned", HdcPolicy::Oracle},
        {"oracle", HdcPolicy::Oracle},
        {"online", HdcPolicy::Online},
        {"off", HdcPolicy::Off},
    }};
    return t;
}

// Canonical table of hdc.policy: the new spellings render first,
// with the deprecated aliases still accepted on input.
const EnumTable<HdcPolicy>&
hdcPolicyCanonicalTokens()
{
    static const EnumTable<HdcPolicy> t{{
        {"off", HdcPolicy::Off},
        {"oracle", HdcPolicy::Oracle},
        {"online", HdcPolicy::Online},
        {"pinned", HdcPolicy::Oracle},
    }};
    return t;
}

const EnumTable<SchedulerKind>&
schedulerKindTokens()
{
    static const EnumTable<SchedulerKind> t{{
        {"fcfs", SchedulerKind::FCFS},
        {"look", SchedulerKind::LOOK},
        {"clook", SchedulerKind::CLOOK},
        {"sstf", SchedulerKind::SSTF},
    }};
    return t;
}

const EnumTable<SegmentPolicy>&
segmentPolicyTokens()
{
    static const EnumTable<SegmentPolicy> t{{
        {"lru", SegmentPolicy::LRU},
        {"fifo", SegmentPolicy::FIFO},
        {"random", SegmentPolicy::Random},
        {"rr", SegmentPolicy::RoundRobin},
    }};
    return t;
}

const EnumTable<BlockPolicy>&
blockPolicyTokens()
{
    static const EnumTable<BlockPolicy> t{{
        {"mru", BlockPolicy::MRU},
        {"lru", BlockPolicy::LRU},
    }};
    return t;
}

void
bindParams(ParamRegistry& reg, SimulationConfig& sim)
{
    // workload.* -- which generator drives the run.
    reg.addEnum("workload.kind", sim.workload, workloadKindTokens(),
                "workload generator (synthetic = Section 6.2; "
                "web/proxy/file = the Section 6.3 server models)");
    reg.add("workload.scale", sim.scale,
            "server-model request scale (1.0 = the paper's trace "
            "length; synthetic ignores this)");

    // system.* -- the array-level system under test.
    SystemConfig& sys = sim.system;
    reg.addEnum("system.kind", sys.kind, systemKindTokens(),
                "controller design: segment cache + blind read-ahead "
                "(segm), block cache + blind (block), no read-ahead "
                "(nora), or file-oriented read-ahead (for)");
    reg.add("system.hdc_bytes_per_disk", sys.hdc.budgetBytesPerDisk,
            "HDC pinned-region budget per controller in bytes "
            "(0 = HDC off; else a multiple of disk.block_bytes; the "
            "paper's figures use 2 MiB); deprecated alias of "
            "hdc.budget_bytes_per_disk");
    reg.addEnum("system.hdc_policy", sys.hdc.policy,
                hdcPolicyTokens(),
                "host policy driving the HDC region; deprecated alias "
                "of hdc.policy (pinned = oracle)");
    reg.add("system.disks", sys.disks, "disks in the array");
    reg.add("system.stripe_unit_bytes", sys.stripeUnitBytes,
            "striping unit in bytes (must be a multiple of "
            "disk.block_bytes)");
    reg.add("system.mirrored", sys.mirrored,
            "RAID-10 mirroring (halves the logical capacity; needs "
            "an even disk count)");
    reg.add("system.streams", sys.streams,
            "concurrent I/O streams during replay (0 = the "
            "workload's own: the server model's concurrency, 128 "
            "for synthetic workloads and loaded traces)");
    reg.add("system.workers", sys.workers,
            "server I/O thread-pool size: records in flight at once "
            "(0 = one worker per stream)");
    reg.addEnum("system.scheduler", sys.scheduler,
                schedulerKindTokens(),
                "media request scheduler (the paper uses LOOK)");
    reg.addEnum("system.segment_policy", sys.segmentPolicy,
                segmentPolicyTokens(),
                "segment-cache replacement policy");
    reg.addEnum("system.block_policy", sys.blockPolicy,
                blockPolicyTokens(),
                "block-cache replacement policy (MRU per the paper)");
    reg.add("system.seed", sys.seed,
            "RNG seed of randomized cache policies");

    // disk.* -- the drive model (defaults: IBM Ultrastar 36Z15,
    // Table 1 of the paper).
    DiskParams& d = sys.disk;
    reg.add("disk.capacity_bytes", d.capacityBytes,
            "formatted capacity in bytes (vendor gigabytes)");
    reg.add("disk.sector_bytes", d.sectorSize,
            "bytes per physical sector");
    reg.add("disk.block_bytes", d.blockSize,
            "bytes per logical (file-system) block");
    reg.add("disk.rpm", d.rpm, "spindle speed in revolutions/minute");
    reg.add("disk.sectors_per_track", d.sectorsPerTrack,
            "sectors per track in the flat (unzoned) model");
    reg.add("disk.recording_zones", d.recordingZones,
            "recording zones grading 440 to 340 sectors/track "
            "(0 = flat single-rate model)");
    reg.add("disk.heads", d.heads,
            "read/write heads (tracks per cylinder)");
    reg.add("disk.seek_alpha_ms", d.seekAlphaMs,
            "seek-curve sqrt-region offset in ms");
    reg.add("disk.seek_beta_ms", d.seekBetaMs,
            "seek-curve sqrt-region slope in ms");
    reg.add("disk.seek_gamma_ms", d.seekGammaMs,
            "seek-curve linear-region offset in ms");
    reg.add("disk.seek_delta_ms", d.seekDeltaMs,
            "seek-curve linear-region slope in ms/cylinder");
    reg.add("disk.seek_theta_cyls", d.seekThetaCyls,
            "seek-curve crossover distance in cylinders");
    reg.add("disk.head_switch_ticks", d.headSwitch,
            "head-switch time in ticks (ns)");
    reg.add("disk.write_settle_ticks", d.writeSettle,
            "extra settle time for writes after a seek, in ticks");
    reg.add("disk.xfer_bytes_per_sec", d.xferRateBytesPerSec,
            "media transfer rate in bytes/second");
    reg.add("disk.cache_bytes", d.cacheBytes,
            "controller cache memory in bytes");
    reg.add("disk.cache_reserved_bytes", d.cacheReservedBytes,
            "controller memory reserved for firmware, not caching");
    reg.add("disk.segment_bytes", d.segmentBytes,
            "segment size of the segment-based organization");
    reg.add("disk.request_overhead_ticks", d.requestOverhead,
            "fixed controller overhead charged per request, in ticks");
    reg.add("disk.bitmap_lookup_overhead_ticks",
            d.bitmapLookupOverhead,
            "extra controller time per FOR bitmap consultation");
    reg.add("disk.hdc_lookup_overhead_ticks", d.hdcLookupOverhead,
            "extra controller time per HDC consultation");

    // synthetic.* -- the Section 6.2 synthetic workload.
    SyntheticParams& sp = sim.synthetic;
    reg.add("synthetic.num_files", sp.numFiles,
            "file population size");
    reg.add("synthetic.file_bytes", sp.fileSizeBytes,
            "size of every file in bytes");
    reg.add("synthetic.requests", sp.numRequests,
            "trace requests (complete-file accesses)");
    reg.add("synthetic.zipf_alpha", sp.zipfAlpha,
            "Bradford-Zipf coefficient over file popularity");
    reg.add("synthetic.write_prob", sp.writeProb,
            "probability that a request writes its file [0,1]");
    reg.add("synthetic.coalesce_prob", sp.coalesceProb,
            "per-boundary request coalescing probability [0,1]");
    reg.add("synthetic.fragmentation", sp.fragmentation,
            "intra-file layout fragmentation degree [0,1]");
    reg.add("synthetic.dir_files", sp.dirFiles,
            "files per directory (explicit-grouping comparison)");
    reg.add("synthetic.dir_access_prob", sp.dirAccessProb,
            "probability of a whole-directory access [0,1]");
    reg.add("synthetic.grouped_layout", sp.groupedLayout,
            "allocate directory members contiguously "
            "(Ganger & Kaashoek layout)");
    reg.add("synthetic.block_bytes", sp.blockSize,
            "workload block size (must equal disk.block_bytes)");
    reg.add("synthetic.seed", sp.seed, "workload RNG seed");

    // run.* -- observability outputs (docs/METRICS.md).
    OutputConfig& out = sim.output;
    reg.add("run.stats_out", out.statsOut,
            "write the full stats dump to this file (empty = off)");
    reg.add("run.trace", out.trace,
            "write one sampled 64-byte binary record per completed "
            "request to this file (empty = off; trace_summary "
            "--to-jsonl prints it as JSONL; docs/OBSERVABILITY.md)");
    reg.add("run.stats_interval_ticks", out.statsIntervalTicks,
            "also snapshot stats every this many simulated ticks "
            "(0 = final dump only)");

    // trace.* -- sampled-tracing knobs (docs/OBSERVABILITY.md). The
    // defaults record everything, and the whole group is
    // elided from effective-config headers when untouched so
    // pre-sampling headers stay byte-identical.
    TraceConfig& tc = out.traceCfg;
    reg.add("trace.sample", tc.sample,
            "probability that a completed request is recorded, drawn "
            "per request from a dedicated RNG stream (1 = full "
            "trace, 0 = none)");
    reg.add("trace.seed", tc.seed,
            "seed of the sampling RNG stream; the same seed on the "
            "same run reproduces the sampled set exactly");

    // fault.* -- scripted whole-disk kill, repair and mirror rebuild
    // (docs/FAULTS.md). Without a kill the group is inert and elided
    // from effective-config headers.
    FaultConfig& f = sys.fault;
    reg.add("fault.kill_at_ticks", f.killAtTicks,
            "tick at which fault.kill_disk dies (0 = never)");
    reg.add("fault.kill_disk", f.killDisk,
            "physical disk killed at fault.kill_at_ticks");
    reg.add("fault.repair_at_ticks", f.repairAtTicks,
            "tick at which the killed disk is repaired and rebuilt "
            "(0 = never)");
    reg.add("fault.rebuild_blocks", f.rebuildBlocks,
            "blocks copied back by the post-repair rebuild "
            "(0 = the whole disk)");
    reg.add("fault.rebuild_chunk_blocks", f.rebuildChunkBlocks,
            "blocks per rebuild media job");

    // hdc.* -- the typed host HDC policy (docs/DESIGN.md "Online
    // HDC"). policy/budget share storage with the deprecated
    // system.hdc_* keys; both spellings read and write the same
    // fields. The group is elided from effective-config headers
    // whenever the legacy keys can express the state, so
    // pre-redesign headers stay byte-identical.
    HdcSpec& h = sys.hdc;
    reg.addEnum("hdc.policy", h.policy, hdcPolicyCanonicalTokens(),
                "host policy driving the HDC region: off, oracle "
                "(top-k pin set from perfect trace knowledge, pinned "
                "at t=0), or online (miss-sketch-driven incremental "
                "re-planning during the run)");
    reg.add("hdc.budget_bytes_per_disk", h.budgetBytesPerDisk,
            "HDC pinned-region budget per controller in bytes "
            "(0 = HDC off; else a multiple of disk.block_bytes)");
    reg.add("hdc.replan_interval_ticks", h.replanIntervalTicks,
            "online policy: base re-plan period in simulated ticks");
    reg.add("hdc.sketch_rows", h.sketchRows,
            "online policy: count-min sketch rows (independent hash "
            "functions)");
    reg.add("hdc.sketch_cols", h.sketchCols,
            "online policy: count-min sketch counters per row (rows "
            "x cols at most 2^28)");
    reg.add("hdc.candidate_blocks", h.candidateBlocks,
            "online policy: bound on the recency-held candidate "
            "block pool, and so on the policy's memory (below 2^32); "
            "a re-plan's cost follows the blocks whose score changed, "
            "not the pool size");
    reg.add("hdc.churn_threshold", h.churnThreshold,
            "online policy: epoch-over-epoch hot-set churn above "
            "which a phase change is declared and the next re-plan "
            "runs at a quarter of the base period [0,1]");
}

namespace {

void
check(std::vector<std::string>& errs, bool ok, std::string msg)
{
    if (!ok)
        errs.push_back(std::move(msg));
}

std::string
u64s(std::uint64_t v)
{
    return config::formatValue(v);
}

} // namespace

std::vector<std::string>
validateConfig(const SimulationConfig& sim)
{
    std::vector<std::string> errs;
    const SystemConfig& sys = sim.system;
    const DiskParams& d = sys.disk;

    check(errs, sys.disks >= 1, "system.disks must be at least 1");
    check(errs, !sys.mirrored || sys.disks % 2 == 0,
          "system.mirrored needs an even system.disks (got " +
              u64s(sys.disks) + ")");

    check(errs, d.sectorSize > 0, "disk.sector_bytes must be > 0");
    check(errs,
          d.blockSize > 0 &&
              (d.sectorSize == 0 || d.blockSize % d.sectorSize == 0),
          "disk.block_bytes (" + u64s(d.blockSize) +
              ") must be a nonzero multiple of disk.sector_bytes (" +
              u64s(d.sectorSize) + ")");
    check(errs, d.blockSize == 0 || d.capacityBytes >= d.blockSize,
          "disk.capacity_bytes must hold at least one block");
    check(errs, d.rpm > 0, "disk.rpm must be > 0");
    check(errs, d.sectorsPerTrack > 0,
          "disk.sectors_per_track must be > 0");
    check(errs, d.heads > 0, "disk.heads must be > 0");
    check(errs, d.xferRateBytesPerSec > 0,
          "disk.xfer_bytes_per_sec must be > 0");

    check(errs,
          sys.stripeUnitBytes > 0 &&
              (d.blockSize == 0 ||
               sys.stripeUnitBytes % d.blockSize == 0),
          "system.stripe_unit_bytes (" + u64s(sys.stripeUnitBytes) +
              ") must be a nonzero multiple of disk.block_bytes (" +
              u64s(d.blockSize) + ")");

    check(errs,
          d.blockSize == 0 ||
              (d.segmentBytes >= d.blockSize &&
               d.segmentBytes % d.blockSize == 0),
          "disk.segment_bytes (" + u64s(d.segmentBytes) +
              ") must be a multiple of disk.block_bytes of at least "
              "one block");
    check(errs, d.usableCacheBytes() > 0,
          "disk.cache_bytes (" + u64s(d.cacheBytes) +
              ") must exceed disk.cache_reserved_bytes (" +
              u64s(d.cacheReservedBytes) + ")");

    // Controller memory carving: the HDC region and (for FOR) the
    // layout bitmap come out of the read-ahead cache budget and must
    // leave room for it (DiskController fatals on the same rules;
    // these produce the error before any thread starts running).
    const std::uint64_t hdc_bytes =
        sys.hdc.enabled() ? sys.hdc.budgetBytesPerDisk : 0;
    // The region holds whole blocks: a remainder would be carved out
    // of the read-ahead cache and never hold data (a sub-block budget
    // would even charge HDC lookups for an empty region).
    check(errs,
          d.blockSize == 0 || hdc_bytes % d.blockSize == 0,
          "hdc.budget_bytes_per_disk (" + u64s(hdc_bytes) +
              ") must be a multiple of disk.block_bytes (" +
              u64s(d.blockSize) + ")");
    std::uint64_t carved = hdc_bytes;
    std::string carve_what =
        "hdc.budget_bytes_per_disk (" + u64s(hdc_bytes) + ")";
    // The bitmap's size divides by disk.block_bytes; a zero block size
    // is reported above.
    if (sys.kind == SystemKind::FOR && d.blockSize > 0) {
        carved += d.bitmapBytes();
        carve_what += " plus the FOR layout bitmap (" +
                      u64s(d.bitmapBytes()) + ")";
    }
    check(errs, carved < d.usableCacheBytes(),
          carve_what + " must leave read-ahead cache memory out of "
          "the usable " + u64s(d.usableCacheBytes()) + " bytes");

    if (sys.hdc.online()) {
        check(errs, sys.hdc.replanIntervalTicks >= 1,
              "hdc.replan_interval_ticks must be at least 1 under "
              "the online HDC policy");
        check(errs, sys.hdc.sketchRows >= 1,
              "hdc.sketch_rows must be at least 1 under the online "
              "HDC policy");
        check(errs, sys.hdc.sketchCols >= 1,
              "hdc.sketch_cols must be at least 1 under the online "
              "HDC policy");
        check(errs, sys.hdc.candidateBlocks >= 1,
              "hdc.candidate_blocks must be at least 1 under the "
              "online HDC policy");
        // The candidate pool indexes its slots as 32-bit integers.
        constexpr std::uint64_t k32 = std::uint64_t{1} << 32;
        check(errs, sys.hdc.candidateBlocks < k32,
              "hdc.candidate_blocks (" + u64s(sys.hdc.candidateBlocks) +
                  ") must be below 2^32 under the online HDC policy");
        // Bound the sketch itself, so a mistyped shape is refused
        // here rather than by the allocator. Dividing keeps the
        // product from overflowing.
        check(errs,
              sys.hdc.sketchRows == 0 || sys.hdc.sketchCols == 0 ||
                  sys.hdc.sketchCols <=
                      kMaxSketchCells / sys.hdc.sketchRows,
              "hdc.sketch_rows (" + u64s(sys.hdc.sketchRows) +
                  ") x hdc.sketch_cols (" + u64s(sys.hdc.sketchCols) +
                  ") must be at most 2^28 sketch counters under the "
                  "online HDC policy");
    }
    check(errs,
          sys.hdc.churnThreshold >= 0 && sys.hdc.churnThreshold <= 1,
          "hdc.churn_threshold must be in [0,1]");

    const bool server = sim.workload != WorkloadKind::Synthetic;
    check(errs, !server || sim.scale > 0,
          "workload.scale must be > 0 for server workloads");
    // Job ids are 32-bit; the trace numbers every request, periodic
    // sync and day boundary.
    check(errs,
          !server || !(sim.scale > 0) ||
              jobIdsFit(serverPreset(sim.workload, sim.scale)),
          "workload.scale (" + config::formatValue(sim.scale) +
              ") gives the " +
              workloadKindTokens().format(sim.workload) +
              " model more requests, syncs and days than 32-bit job "
              "ids can number");

    const OutputConfig& out = sim.output;
    check(errs,
          out.traceCfg.sample >= 0.0 && out.traceCfg.sample <= 1.0,
          "trace.sample must be in [0, 1]");
    check(errs, out.traceCfg.sample >= 1.0 || !out.trace.empty(),
          "trace.sample < 1 has no effect without run.trace");

    const FaultConfig& f = sys.fault;
    check(errs, f.rebuildChunkBlocks >= 1,
          "fault.rebuild_chunk_blocks must be at least 1");
    check(errs, f.killAtTicks == 0 || f.killDisk < sys.disks,
          "fault.kill_disk (" + u64s(f.killDisk) +
              ") must name one of the " + u64s(sys.disks) +
              " system.disks");
    check(errs, f.killAtTicks == 0 || sys.mirrored,
          "fault.kill_at_ticks needs system.mirrored: an unmirrored "
          "array has no redundancy to survive a disk failure");
    check(errs, f.repairAtTicks == 0 || f.killAtTicks > 0,
          "fault.repair_at_ticks needs fault.kill_at_ticks: there is "
          "no killed disk to repair");
    // Without a kill the fault.* header group is elided, so a knob set
    // here would change nothing and the dump would not record it.
    const FaultConfig idle;
    for (const auto& [key, set] :
         {std::pair{"fault.kill_disk", f.killDisk != idle.killDisk},
          std::pair{"fault.rebuild_blocks",
                    f.rebuildBlocks != idle.rebuildBlocks},
          std::pair{"fault.rebuild_chunk_blocks",
                    f.rebuildChunkBlocks != idle.rebuildChunkBlocks}})
        check(errs, !set || f.killAtTicks > 0,
              std::string(key) + " needs fault.kill_at_ticks: without "
              "a killed disk it has no effect");
    check(errs,
          f.repairAtTicks == 0 || f.repairAtTicks > f.killAtTicks,
          "fault.repair_at_ticks must be after fault.kill_at_ticks");

    if (sim.workload == WorkloadKind::Synthetic) {
        const SyntheticParams& sp = sim.synthetic;
        check(errs, sp.numFiles >= 1,
              "synthetic.num_files must be at least 1");
        check(errs, sp.fileSizeBytes > 0,
              "synthetic.file_bytes must be > 0");
        check(errs, sp.numRequests >= 1,
              "synthetic.requests must be at least 1");
        check(errs, sp.zipfAlpha >= 0,
              "synthetic.zipf_alpha must be >= 0");
        check(errs, sp.writeProb >= 0 && sp.writeProb <= 1,
              "synthetic.write_prob must be in [0,1]");
        check(errs, sp.coalesceProb >= 0 && sp.coalesceProb <= 1,
              "synthetic.coalesce_prob must be in [0,1]");
        check(errs, sp.fragmentation >= 0 && sp.fragmentation <= 1,
              "synthetic.fragmentation must be in [0,1]");
        check(errs, sp.dirAccessProb >= 0 && sp.dirAccessProb <= 1,
              "synthetic.dir_access_prob must be in [0,1]");
        check(errs, sp.dirFiles >= 1,
              "synthetic.dir_files must be at least 1");
        check(errs, sp.blockSize == d.blockSize,
              "synthetic.block_bytes (" + u64s(sp.blockSize) +
                  ") must equal disk.block_bytes (" +
                  u64s(d.blockSize) + ")");
    }

    return errs;
}

std::string
renderConfigHeader(const SimulationConfig& sim,
                   const std::vector<std::string>& groups)
{
    // Bind a copy so rendering works on const configs.
    SimulationConfig copy = sim;
    ParamRegistry reg;
    bindParams(reg, copy);

    std::ostringstream os;
    os << "# dtsim effective config -- self-describing result "
          "header;\n"
       << "# reload with `dtsim_cli --config <this file>` "
          "(docs/CONFIG.md)\n";
    for (const config::ParamEntry& e : reg.entries()) {
        if (!groups.empty()) {
            bool match = false;
            for (const std::string& g : groups)
                match = match || e.name.compare(0, g.size(), g) == 0;
            if (!match)
                continue;
        }
        // Without a scripted disk kill the group is pure noise (and
        // pre-fault headers must stay byte-identical): elide it.
        if (!sim.system.fault.enabled() &&
            e.name.compare(0, 6, "fault.") == 0)
            continue;
        // Same contract for the sampled-tracing group: headers only
        // mention it when a knob was touched, so pre-sampling dumps
        // stay byte-identical.
        if (!sim.output.traceCfg.nonDefault() &&
            e.name.compare(0, 6, "trace.") == 0)
            continue;
        // The typed hdc. group only appears once the state left what
        // the legacy system.hdc_* keys can express: pre-redesign
        // headers stay byte-identical.
        if (!sim.system.hdc.headerNeeded() &&
            e.name.compare(0, 4, "hdc.") == 0)
            continue;
        os << "#conf " << e.name << " = " << e.get() << "\n";
    }
    os << "# end of effective config\n";
    return os.str();
}

} // namespace dtsim
