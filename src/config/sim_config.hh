/**
 * @file
 * The unified simulation configuration: one aggregate over every
 * configurable struct in the stack (workload choice, SystemConfig
 * with its DiskParams, SyntheticParams, output options), bound to a
 * ParamRegistry so each field is declared once with name, type,
 * default, and doc.
 *
 * docs/CONFIG.md is the generated reference for every key; regenerate
 * it with `dtsim_cli --param-docs-md`.
 */

#ifndef DTSIM_CONFIG_SIM_CONFIG_HH
#define DTSIM_CONFIG_SIM_CONFIG_HH

#include <string>
#include <vector>

#include "config/param_registry.hh"
#include "core/system.hh"
#include "stats/trace.hh"
#include "workload/server_models.hh"
#include "workload/synthetic.hh"

namespace dtsim {

/** Which workload generator drives the run. */
enum class WorkloadKind { Synthetic, Web, Proxy, File };

/** Output options of a run (the file-backed subset of RunOptions). */
struct OutputConfig
{
    /** Stats-dump path ("" = off); see docs/METRICS.md. */
    std::string statsOut;

    /** Sampled per-request trace path ("" = off). */
    std::string trace;

    /** Sampling knobs of the trace (the trace.* group). */
    TraceConfig traceCfg;

    /** Periodic snapshot interval in ticks (0 = final dump only). */
    Tick statsIntervalTicks = 0;
};

/** Everything one run or sweep point is configured by. */
struct SimulationConfig
{
    WorkloadKind workload = WorkloadKind::Synthetic;

    /** Server-model request scale (web/proxy/file workloads). */
    double scale = 0.05;

    /**
     * system.streams starts at 0, the workload's own concurrency;
     * Experiment::prepare() (core/experiment.hh) fills it in before a
     * run, so an explicit value always wins.
     */
    SystemConfig system = [] {
        SystemConfig s;
        s.streams = 0;
        return s;
    }();
    SyntheticParams synthetic;
    OutputConfig output;
};

/** The server-model preset of a server workload kind at `scale`. */
ServerModelParams serverPreset(WorkloadKind kind, double scale);

/** Token tables shared by the registry, the CLI, and the loader. */
const config::EnumTable<WorkloadKind>& workloadKindTokens();
const config::EnumTable<SystemKind>& systemKindTokens();
const config::EnumTable<HdcPolicy>& hdcPolicyTokens();
const config::EnumTable<HdcPolicy>& hdcPolicyCanonicalTokens();
const config::EnumTable<SchedulerKind>& schedulerKindTokens();
const config::EnumTable<SegmentPolicy>& segmentPolicyTokens();
const config::EnumTable<BlockPolicy>& blockPolicyTokens();

/**
 * Declare every parameter of `sim` on `reg` (group prefixes:
 * workload., system., disk., synthetic., run., trace., fault.,
 * hdc.). `sim` must outlive the registry. Field values at bind time
 * become the documented defaults, so bind default-constructed configs
 * for canonical docs.
 */
void bindParams(config::ParamRegistry& reg, SimulationConfig& sim);

/**
 * Cross-parameter validation, replacing scattered construction-time
 * asserts with precise, early errors. Returns every violated rule
 * (empty = valid). The deep fatal() checks remain as backstops for
 * code that bypasses the config layer.
 */
std::vector<std::string> validateConfig(const SimulationConfig& sim);

/**
 * The canonical effective-config dump: every registered parameter as
 * a "#conf key = value" line, ending with a separator comment. This
 * header starts every stats dump and trace file, making results
 * self-describing; feeding such a file to --config (or the loader)
 * reproduces the run. `groups`, when non-empty, restricts the dump
 * to keys under the given prefixes (e.g. {"system.", "disk."}).
 */
std::string
renderConfigHeader(const SimulationConfig& sim,
                   const std::vector<std::string>& groups = {});

} // namespace dtsim

#endif // DTSIM_CONFIG_SIM_CONFIG_HH
