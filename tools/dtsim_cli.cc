/**
 * @file
 * Command-line experiment driver over the typed parameter registry:
 * every knob is a registered `group.key` parameter settable from
 * config files (--config), direct overrides (--set), or the classic
 * sugar flags, and every run's outputs begin with an effective-config
 * header that --config reloads to reproduce the run.
 *
 * Examples:
 *   dtsim_cli --workload synthetic --system for --file-kb 16
 *   dtsim_cli --config examples/web_for_hdc.conf
 *   dtsim_cli --config run1_stats.txt --set system.scheduler=sstf
 *   dtsim_cli --sweep examples/sweeps/fig07_web_striping.conf
 *   dtsim_cli --workload web --system all --jobs 4
 *   dtsim_cli --list-params
 *   dtsim_cli --diff-stats old_stats.txt new_stats.txt
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/config_file.hh"
#include "config/sweep_spec.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/sweep_driver.hh"
#include "sim/logging.hh"
#include "stats/dump_reader.hh"

using namespace dtsim;

namespace {

void
usage()
{
    std::printf(
        "usage: dtsim_cli [options]\n"
        "configuration (every knob is a registered parameter):\n"
        "  --config FILE       apply a key = value config file; stats\n"
        "                      dumps and traces reload too (their\n"
        "                      '#conf' header lines are parsed)\n"
        "  --set KEY=VALUE     set one parameter (repeatable; applied\n"
        "                      in command-line order)\n"
        "  --sweep FILE        expand the sweep grid in FILE ('sweep\n"
        "                      KEY = v1, v2, ...' axis lines over a\n"
        "                      base config), run every feasible point\n"
        "                      in parallel, and print a result table\n"
        "                      (one --sweep per run)\n"
        "  --list-params       list every parameter with its type,\n"
        "                      default, and description\n"
        "  --param-docs-md     print the Markdown configuration\n"
        "                      reference (docs/CONFIG.md is this\n"
        "                      output, verbatim)\n"
        "  --diff-stats A B    print what differs from stats dump A\n"
        "                      to B: '#conf' lines first, then every\n"
        "                      stat that moved, largest relative\n"
        "                      change first (nothing when equal)\n"
        "workload sugar (sets the parameter in parentheses):\n"
        "  --workload K        synthetic|web|proxy|file\n"
        "                      (workload.kind)\n"
        "  --requests N        synthetic requests (synthetic.requests)\n"
        "  --file-kb N         synthetic file size in KiB\n"
        "                      (synthetic.file_bytes)\n"
        "  --zipf A            popularity coefficient\n"
        "                      (synthetic.zipf_alpha)\n"
        "  --writes P          synthetic write fraction [0,1]\n"
        "                      (synthetic.write_prob)\n"
        "  --scale S           server-model request scale\n"
        "                      (workload.scale)\n"
        "  --load-trace PATH   replay a saved trace instead\n"
        "  --save-trace PATH   save the generated trace and exit\n"
        "system sugar:\n"
        "  --system K          segm|block|nora|for (system.kind), or\n"
        "                      'all' to compare every kind in one\n"
        "                      parallel sweep\n"
        "  --hdc-kb N          per-disk HDC budget in KiB\n"
        "                      (hdc.budget_bytes_per_disk)\n"
        "  --hdc-policy P      off|oracle|online\n"
        "                      (hdc.policy; pinned = oracle)\n"
        "  --disks N           array size (system.disks)\n"
        "  --unit-kb N         striping unit in KiB\n"
        "                      (system.stripe_unit_bytes)\n"
        "  --streams N         concurrent streams, 0 = the workload's\n"
        "                      own (system.streams)\n"
        "  --workers N         I/O thread pool, 0 = streams\n"
        "                      (system.workers)\n"
        "  --sched S           fcfs|look|clook|sstf (system.scheduler)\n"
        "  --zones N           recording zones, 0 = flat\n"
        "                      (disk.recording_zones)\n"
        "  --seed N            RNG seed (system.seed and\n"
        "                      synthetic.seed)\n"
        "observability (docs/METRICS.md documents every stat name):\n"
        "  --stats-out FILE    write the full stats dump to FILE\n"
        "                      (run.stats_out); under a sweep each\n"
        "                      point writes FILE.<key-value>[...], plus\n"
        "                      non-default fault./hdc. params when\n"
        "                      a fault scenario or HDC policy is\n"
        "                      configured\n"
        "  --trace FILE        one sampled 64-byte binary record per\n"
        "                      completed request (run.trace; view it\n"
        "                      with trace_summary [--to-jsonl], see\n"
        "                      docs/OBSERVABILITY.md); suffixed per\n"
        "                      point under a sweep\n"
        "  --trace-sample P    record each completed request with\n"
        "                      probability P from a dedicated RNG\n"
        "                      stream (trace.sample; default 1 =\n"
        "                      every request, seed via trace.seed)\n"
        "  --stats-interval T  also snapshot stats every T ticks (ns)\n"
        "                      into the stats dump, each flushed as\n"
        "                      written so `tail -f` follows the run\n"
        "                      (run.stats_interval_ticks)\n"
        "  --jobs N            sweep threads (default DTSIM_JOBS,\n"
        "                      else all cores)\n"
        "  --log-level L       quiet|warn|inform|debug (also the\n"
        "                      DTSIM_LOG environment variable)\n"
        "docs/CONFIG.md is the full parameter reference.\n");
}

const char*
arg(int argc, char** argv, int& i)
{
    if (i + 1 >= argc)
        fatal("missing value for %s", argv[i]);
    return argv[++i];
}

/** The whole of stats dump `path`; fatal when it cannot be read. */
std::string
readDump(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    if (!in)
        fatal("cannot read stats dump %s", path.c_str());
    return text.str();
}

/** Parse a sugar-flag value with the checked parser; fatal on junk. */
template <typename T>
T
parseFlag(const char* flag, const std::string& text)
{
    T v{};
    std::string err;
    if (!config::parseValue(text, v, err))
        fatal("%s: %s", flag, err.c_str());
    return v;
}

/** Set a registered parameter; fatal with the registry's error. */
void
setParam(config::ParamRegistry& reg, const std::string& key,
         const std::string& value)
{
    std::string err;
    if (!reg.set(key, value, err))
        fatal("%s", err.c_str());
}

void
listParams(const config::ParamRegistry& reg)
{
    for (const config::ParamEntry& e : reg.entries()) {
        std::printf("%-32s %s  (default %s)\n    %s\n",
                    e.name.c_str(), e.type.c_str(),
                    e.defaultValue.c_str(), e.doc.c_str());
    }
}

/** Escape '|' for use inside a Markdown table cell. */
std::string
mdEscape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '|')
            out += "\\|";
        else
            out += c;
    }
    return out;
}

void
paramDocsMarkdown(const config::ParamRegistry& reg)
{
    std::printf(
        "# dtsim configuration reference\n"
        "\n"
        "<!-- Generated by `dtsim_cli --param-docs-md`. Do not edit\n"
        "     by hand; regenerate after changing registered\n"
        "     parameters (src/config/sim_config.cc). -->\n"
        "\n"
        "Every knob of the simulator is a typed, registered parameter\n"
        "`group.key`, declared once in `src/config/sim_config.cc` with\n"
        "its type, default, and documentation. The same registry\n"
        "drives `--set`, config files, sweeps, `--list-params`, this\n"
        "reference, and the effective-config header that starts every\n"
        "stats dump and request trace.\n"
        "\n"
        "## Config files\n"
        "\n"
        "`dtsim_cli --config FILE` applies one `key = value`\n"
        "assignment per line; blank lines and `#` comments are\n"
        "ignored. Unknown keys, malformed values, and trailing junk\n"
        "are errors with `file:line` positions. `--set KEY=VALUE`\n"
        "sets a single parameter; `--config` and `--set` apply in\n"
        "command-line order, later wins.\n"
        "\n"
        "Stats dumps and request traces begin with the run's\n"
        "effective configuration as `#conf key = value` lines. A file\n"
        "containing such lines loads in *embedded* mode: only the\n"
        "`#conf` lines are parsed, so `--config results_stats.txt`\n"
        "reproduces the run that wrote the file, bit for bit.\n"
        "\n"
        "## Sweeps\n"
        "\n"
        "`dtsim_cli --sweep FILE` reads a config file that may also\n"
        "contain axis lines:\n"
        "\n"
        "```\n"
        "workload.kind = web\n"
        "sweep system.stripe_unit_bytes = 4096, 8192, 16384\n"
        "sweep system.kind = segm, for\n"
        "```\n"
        "\n"
        "Axes expand as a cartesian product (first axis slowest) and\n"
        "every feasible point runs through the parallel sweep runner.\n"
        "Points that fail cross-parameter validation (for example an\n"
        "HDC budget that leaves no read-ahead cache memory) are\n"
        "reported and skipped rather than aborting the sweep. The\n"
        "paper's figure and ablation grids ship as sweep files in\n"
        "`examples/sweeps/`.\n"
        "\n"
        "## Validation\n"
        "\n"
        "Before running, the full configuration is cross-checked\n"
        "(stripe unit and HDC budget multiples of the block size, HDC +\n"
        "FOR bitmap within the controller cache, mirrored arrays even-sized,\n"
        "...). Violations are reported together, with the offending\n"
        "keys named.\n"
        "\n"
        "## Parameters\n");

    std::string group;
    for (const config::ParamEntry& e : reg.entries()) {
        const std::string g = e.name.substr(0, e.name.find('.'));
        if (g != group) {
            group = g;
            std::printf("\n### %s.*\n\n", group.c_str());
            std::printf("| Key | Type | Default | Description |\n"
                        "|---|---|---|---|\n");
        }
        std::printf("| `%s` | `%s` | `%s` | %s |\n", e.name.c_str(),
                    mdEscape(e.type).c_str(),
                    e.defaultValue.empty()
                        ? "(empty)"
                        : mdEscape(e.defaultValue).c_str(),
                    mdEscape(e.doc).c_str());
    }
}

/** A value made safe for use inside a file name. */
std::string
fileToken(const std::string& v)
{
    std::string out;
    for (char c : v) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' ||
                        c == '_' || c == '-';
        out += ok ? c : '-';
    }
    return out;
}

/**
 * Output-file suffix of a sweep point: one ".key-value" element per
 * coordinate (leaf key only), so files from different axes never
 * collide even when two axes share a value. When the point carries a
 * fault scenario, the non-default fault.* parameters are appended
 * too, disambiguating per-scenario outputs of otherwise identical
 * coordinates (e.g. `--system all` under a disk-kill script).
 */
std::string
coordSuffix(const SweepPoint& p)
{
    std::string s;
    for (const auto& kv : p.coords) {
        const std::size_t dot = kv.first.rfind('.');
        // Appended piecewise: GCC 12 flags `"." + std::string`
        // (a string insert at offset 0) with a false -Wrestrict in
        // Release builds without LTO.
        s += '.';
        s += kv.first.substr(dot == std::string::npos ? 0 : dot + 1);
        s += '-';
        s += fileToken(kv.second);
    }
    // Same treatment for the HDC policy group: a sweep mixing
    // policies must not write over the plain run's files.
    const bool want_fault = p.cfg.system.fault.enabled();
    const bool want_hdc = p.cfg.system.hdc.enabled() ||
                          p.cfg.system.hdc.headerNeeded();
    if (want_fault || want_hdc) {
        // Two registries: one bound to the point (current values),
        // one to a default config (true defaults); only deviations
        // that are not already sweep coordinates are appended.
        SimulationConfig cur_cfg = p.cfg;
        SimulationConfig def_cfg;
        config::ParamRegistry cur, def;
        bindParams(cur, cur_cfg);
        bindParams(def, def_cfg);
        const std::vector<config::ParamEntry>& defs = def.entries();
        const std::vector<config::ParamEntry>& curs = cur.entries();
        for (std::size_t i = 0;
             i < curs.size() && i < defs.size(); ++i) {
            const config::ParamEntry& e = curs[i];
            const bool take =
                (want_fault && e.name.compare(0, 6, "fault.") == 0) ||
                (want_hdc && e.name.compare(0, 4, "hdc.") == 0);
            if (!take)
                continue;
            // A sweep axis over a deprecated alias covers the field
            // it aliases.
            bool is_axis = false;
            for (const auto& kv : p.coords)
                is_axis = is_axis || cur.sameField(kv.first, e.name);
            if (is_axis)
                continue;
            const std::string v = e.get();
            if (v == defs[i].get())
                continue;
            s += '.';
            s += e.name.substr(e.name.find('.') + 1);
            s += '-';
            s += fileToken(v);
        }
    }
    return s;
}

/** Human label of a sweep point: "key=value key=value". */
std::string
coordLabel(const SweepPoint& p)
{
    std::string s;
    for (const auto& kv : p.coords) {
        if (!s.empty())
            s += " ";
        const std::size_t dot = kv.first.rfind('.');
        s += kv.first.substr(dot == std::string::npos ? 0 : dot + 1) +
             "=" + kv.second;
    }
    return s.empty() ? "(base)" : s;
}

int
runSweepMode(const SweepSpec& spec, unsigned jobs)
{
    std::string err;
    std::vector<SweepPoint> points = expandSweep(spec, err);
    if (points.empty())
        fatal("sweep: %s",
              err.empty() ? "empty grid" : err.c_str());

    // Give each point its own output files, suffixed by coordinates.
    for (SweepPoint& p : points) {
        if (!p.cfg.output.statsOut.empty())
            p.cfg.output.statsOut += coordSuffix(p);
        if (!p.cfg.output.trace.empty())
            p.cfg.output.trace += coordSuffix(p);
    }

    std::size_t label_w = 8;
    for (const SweepPoint& p : points)
        label_w = std::max(label_w, coordLabel(p).size());

    const std::vector<RunResult> results =
        runSweepPoints(points, jobs);

    std::printf("\n%-*s %-10s %-10s %-8s %-10s %-10s %-10s\n",
                static_cast<int>(label_w), "point", "io(s)", "MB/s",
                "util", "cache-hit", "hdc-hit", "lat(ms)");
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::string label = coordLabel(points[i]);
        if (!points[i].feasible) {
            std::printf("%-*s infeasible: %s\n",
                        static_cast<int>(label_w), label.c_str(),
                        points[i].whyNot.c_str());
            continue;
        }
        const RunResult& r = results[i];
        std::printf("%-*s %-10.3f %-10.2f %-8.3f %-10.3f %-10.3f "
                    "%-10.3f\n",
                    static_cast<int>(label_w), label.c_str(),
                    toSeconds(r.ioTime), r.throughputMBps,
                    r.diskUtilization, r.cacheHitRate, r.hdcHitRate,
                    r.meanLatencyMs);
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    SimulationConfig sim;
    config::ParamRegistry reg;
    bindParams(reg, sim);

    std::string load_trace, save_trace;
    SweepSpec sweep;
    std::string sweep_path;
    bool all_systems = false;
    unsigned jobs = 0;

    initLogLevelFromEnv();

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else if (a == "--list-params") {
            listParams(reg);
            return 0;
        } else if (a == "--param-docs-md") {
            paramDocsMarkdown(reg);
            return 0;
        } else if (a == "--diff-stats") {
            if (i + 2 >= argc)
                fatal("--diff-stats needs two stats dumps");
            const std::string from = argv[++i];
            const std::string to = argv[++i];
            for (const std::string& line :
                 stats::diffDumps(stats::parseDump(readDump(from)),
                                  stats::parseDump(readDump(to))))
                std::printf("%s\n", line.c_str());
            return 0;
        } else if (a == "--config") {
            const char* path = arg(argc, argv, i);
            std::string err;
            if (!config::loadConfigFile(path, reg, err))
                fatal("%s", err.c_str());
        } else if (a == "--set") {
            const std::string kv = arg(argc, argv, i);
            std::string key, value, err;
            if (!config::splitAssignment(kv, key, value, err))
                fatal("--set %s: %s", kv.c_str(), err.c_str());
            setParam(reg, key, value);
        } else if (a == "--sweep") {
            // Applied at this position: the file's base assignments
            // land now, so later --set / sugar flags override them.
            const char* path = arg(argc, argv, i);
            if (!sweep_path.empty())
                fatal("--sweep %s: a run takes one sweep file, and %s "
                      "was already given",
                      path, sweep_path.c_str());
            sweep.base = sim;
            std::string err;
            if (!loadSweepFile(path, sweep, err))
                fatal("%s", err.c_str());
            sim = sweep.base;
            sweep_path = path;
        } else if (a == "--workload") {
            setParam(reg, "workload.kind", arg(argc, argv, i));
        } else if (a == "--jobs") {
            jobs = parseFlag<unsigned>("--jobs", arg(argc, argv, i));
        } else if (a == "--requests") {
            setParam(reg, "synthetic.requests", arg(argc, argv, i));
        } else if (a == "--file-kb") {
            const std::uint64_t kb = parseFlag<std::uint64_t>(
                "--file-kb", arg(argc, argv, i));
            setParam(reg, "synthetic.file_bytes",
                     std::to_string(kb * kKiB));
        } else if (a == "--zipf") {
            setParam(reg, "synthetic.zipf_alpha", arg(argc, argv, i));
        } else if (a == "--writes") {
            setParam(reg, "synthetic.write_prob", arg(argc, argv, i));
        } else if (a == "--scale") {
            setParam(reg, "workload.scale", arg(argc, argv, i));
        } else if (a == "--load-trace") {
            load_trace = arg(argc, argv, i);
        } else if (a == "--save-trace") {
            save_trace = arg(argc, argv, i);
        } else if (a == "--system") {
            const std::string kind = arg(argc, argv, i);
            if (kind == "all")
                all_systems = true;
            else
                setParam(reg, "system.kind", kind);
        } else if (a == "--hdc-kb") {
            const std::uint64_t kb = parseFlag<std::uint64_t>(
                "--hdc-kb", arg(argc, argv, i));
            setParam(reg, "hdc.budget_bytes_per_disk",
                     std::to_string(kb * kKiB));
        } else if (a == "--hdc-policy") {
            setParam(reg, "hdc.policy", arg(argc, argv, i));
        } else if (a == "--disks") {
            setParam(reg, "system.disks", arg(argc, argv, i));
        } else if (a == "--unit-kb") {
            const std::uint64_t kb = parseFlag<std::uint64_t>(
                "--unit-kb", arg(argc, argv, i));
            setParam(reg, "system.stripe_unit_bytes",
                     std::to_string(kb * kKiB));
        } else if (a == "--streams") {
            setParam(reg, "system.streams", arg(argc, argv, i));
        } else if (a == "--workers") {
            setParam(reg, "system.workers", arg(argc, argv, i));
        } else if (a == "--sched") {
            setParam(reg, "system.scheduler", arg(argc, argv, i));
        } else if (a == "--zones") {
            setParam(reg, "disk.recording_zones", arg(argc, argv, i));
        } else if (a == "--stats-out") {
            setParam(reg, "run.stats_out", arg(argc, argv, i));
        } else if (a == "--trace") {
            setParam(reg, "run.trace", arg(argc, argv, i));
        } else if (a == "--trace-sample") {
            setParam(reg, "trace.sample", arg(argc, argv, i));
        } else if (a == "--stats-interval") {
            setParam(reg, "run.stats_interval_ticks",
                     arg(argc, argv, i));
        } else if (a == "--log-level") {
            const char* name = arg(argc, argv, i);
            LogLevel level;
            if (!parseLogLevel(name, level))
                fatal("unknown log level '%s'", name);
            setLogLevel(level);
        } else if (a == "--seed") {
            const char* seed = arg(argc, argv, i);
            setParam(reg, "system.seed", seed);
            setParam(reg, "synthetic.seed", seed);
        } else {
            fatal("unknown option '%s' (--help lists options; use "
                  "--set KEY=VALUE for registered parameters)",
                  a.c_str());
        }
    }

    // Sweep modes: an explicit sweep file, or --system all expanded
    // to a one-axis sweep over the system kind.
    if (!sweep_path.empty() || all_systems) {
        if (!load_trace.empty())
            fatal("sweeps generate their workloads; --load-trace "
                  "only applies to single runs");
        sweep.base = sim;
        if (all_systems)
            sweep.axes.push_back(
                {"system.kind", {"segm", "block", "nora", "for"}});
        return runSweepMode(sweep, jobs);
    }

    // Replay of a saved trace: no workload build, no image, so FOR
    // (which needs layout bitmaps) is unavailable.
    if (!load_trace.empty()) {
        const std::vector<std::string> errs = validateConfig(sim);
        if (!errs.empty())
            fatal("invalid configuration: %s", errs.front().c_str());
        if (sim.system.kind == SystemKind::FOR)
            fatal("FOR needs a file-system image; loaded traces "
                  "carry none (use --workload instead)");
        Trace trace;
        try {
            trace = loadTrace(load_trace,
                              arrayAddressableBlocks(sim.system));
        } catch (const std::runtime_error& e) {
            fatal("%s", e.what());
        }
        std::printf("loaded %zu records from %s\n", trace.size(),
                    load_trace.c_str());

        Experiment replay(sim);
        replay.replay(trace);
        const RunResult r = replay.run();
        printReport(std::cout, replay.config().system, r);
        return 0;
    }

    Experiment exp(sim);

    const TraceStats ts = computeStats(exp.trace());
    std::printf("trace: %llu records, %llu blocks, %.1f%% writes, "
                "%llu jobs\n",
                static_cast<unsigned long long>(ts.records),
                static_cast<unsigned long long>(ts.blocks),
                ts.writeRecordFraction * 100.0,
                static_cast<unsigned long long>(ts.jobs));

    if (!save_trace.empty()) {
        saveTrace(exp.trace(), save_trace);
        std::printf("saved to %s\n", save_trace.c_str());
        return 0;
    }

    const RunResult r = exp.run();
    printReport(std::cout, exp.config().system, r);
    if (!exp.runOptions().stats.path().empty())
        inform("wrote stats dump to %s",
               exp.runOptions().stats.path().c_str());
    if (!exp.runOptions().tracePath.empty())
        inform("wrote %llu trace records to %s",
               static_cast<unsigned long long>(r.traceRecords),
               exp.runOptions().tracePath.c_str());
    return 0;
}
