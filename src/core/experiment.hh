/**
 * @file
 * Experiment: the one front door for running a simulation.
 *
 * Every run used to be assembled by hand from the same parts --
 * resolveStreams(), validateConfig(), buildWorkload(), FOR layout
 * bitmaps, the HDC pin plan, RunOptions -- and the CLI, the sweep
 * driver, the benches, and the examples each repeated the ritual with
 * slight variations. An Experiment owns the whole setup behind a
 * fluent interface and a single run():
 *
 *     RunResult r = Experiment(sim).run();
 *
 *     Experiment e(base);                    // bench-style replay
 *     e.kind(SystemKind::FOR)
 *      .replay(trace)
 *      .bitmaps(bitmaps);
 *     e.config().system.hdc.budgetBytesPerDisk = 2 * kMiB;
 *     RunResult r = e.run();
 *
 * Two input modes:
 *
 *  - **Built** (default): prepare() validates the full configuration
 *    (fatal on errors), builds the workload the config asks for, and
 *    resolves system.streams = 0 to its concurrency. FOR bitmaps and
 *    the oracle-policy HDC pin plan are derived automatically.
 *
 *  - **Replay** (replay() called): the caller supplies the trace, and
 *    usually the bitmaps, directly; no workload build and no full
 *    config validation, matching the direct runTrace() path the
 *    benches always used. system.streams = 0 resolves to
 *    SystemConfig's default, as the trace carries no concurrency.
 *
 * Output destinations default from config().output and can be
 * overridden fluently (statsTo / traceTo / statsEvery). Batches of
 * Experiments run concurrently through runAll(), with results
 * bit-identical to calling run() on each in order.
 */

#ifndef DTSIM_CORE_EXPERIMENT_HH
#define DTSIM_CORE_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "config/sim_config.hh"
#include "core/runner.hh"
#include "core/sweep_driver.hh"

namespace dtsim {

/** One configured, runnable simulation experiment. */
class Experiment
{
  public:
    /** An experiment over the workload and system `sim` describes. */
    explicit Experiment(SimulationConfig sim = SimulationConfig{});

    /**
     * A replay experiment over a bare SystemConfig (bench style):
     * equivalent to wrapping `sys` in a default SimulationConfig; a
     * trace must be supplied with replay() before running.
     */
    explicit Experiment(const SystemConfig& sys);

    /** Move-only: prepared state may be large (the built workload). */
    Experiment(Experiment&&) = default;
    Experiment& operator=(Experiment&&) = default;
    Experiment(const Experiment&) = delete;
    Experiment& operator=(const Experiment&) = delete;

    /** @name Fluent system knobs (call before prepare()/run()). */
    ///@{

    /** Set the system kind under test. */
    Experiment& kind(SystemKind k);

    ///@}
    /** @name Inputs. */
    ///@{

    /**
     * Replay `t` instead of building a workload; `t` must outlive the
     * Experiment. Disables workload building and full-config
     * validation (the caller vouches for the config, like direct
     * runTrace() callers always did). The records are still checked
     * at prepare(): a zero-length record, or one past the array's
     * addressable blocks, is fatal and names the record's index.
     */
    Experiment& replay(const Trace& t);

    /**
     * Use these FOR layout bitmaps instead of deriving them from the
     * built workload's file-system image; must outlive the
     * Experiment. Required for FOR runs in replay mode.
     */
    Experiment& bitmaps(const std::vector<LayoutBitmap>& bm);

    /**
     * Use this HDC warm-start pin plan instead of deriving one from
     * the trace; must outlive the Experiment. Only meaningful under
     * the oracle policy; it is the way to share one oracle derivation
     * across runs.
     */
    Experiment& pins(const std::vector<ArrayBlock>& p);

    /**
     * Include these workload-generation buffer-cache stats in the
     * stats dump (sim.fs); must outlive the run.
     */
    Experiment& fsStats(const BufferCacheStats& stats);

    ///@}
    /** @name Outputs (default from config().output). */
    ///@{

    /** Send the stats dump/snapshots to `sink`. */
    Experiment& statsTo(StatsSink sink);

    /** Write one sampled record per completed request to `path`. */
    Experiment& traceTo(std::string path);

    /** Snapshot stats every `interval` ticks (0 = final dump only). */
    Experiment& statsEvery(Tick interval);

    /**
     * Use this pre-rendered effective-config header; when unset,
     * prepare() renders one from the full configuration (built mode)
     * or leaves synthesis to the runner (replay mode).
     */
    Experiment& header(std::string text);

    /** Replace the run options wholesale (advanced callers). */
    Experiment& options(const RunOptions& opts);

    ///@}

    /** The underlying configuration (mutable until prepare()). */
    SimulationConfig& config() { return cfg_; }
    const SimulationConfig& config() const { return cfg_; }

    /** The effective run options; complete after prepare(). */
    const RunOptions& runOptions() const { return opts_; }

    /**
     * Resolve the experiment: validate and build the workload (built
     * mode), derive bitmaps/pins, and fill output options from
     * config().output. Idempotent; run() calls it automatically.
     * fatal()s on an invalid configuration.
     */
    void prepare();

    /** The trace this experiment replays (prepares if needed). */
    const Trace& trace();

    /** Execute the experiment (prepares if needed). */
    RunResult run();

    /**
     * Prepare every experiment of a batch, then run them on a pool of
     * `threads` host threads (0 = hostThreads(): DTSIM_JOBS, else the
     * hardware concurrency; capped at the batch size; one thread runs
     * the batch inline). Each run owns its own EventQueue and
     * DiskArray and only reads its trace, bitmaps and pins, so results
     * come back in batch order, bit-identical to running each alone.
     * Each experiment writes its own stats/trace outputs: give them
     * distinct paths, and a stream-backed StatsSink must be safe to
     * write from the worker that runs its experiment. If runs throw,
     * the first exception in batch order is rethrown after every
     * worker has stopped.
     */
    static std::vector<RunResult> runAll(std::vector<Experiment>& batch,
                                         unsigned threads = 0);

  private:
    const Trace& theTrace() const;
    StripingMap striping() const;

    /** runTrace() over the prepared inputs; safe to call from a
     *  worker thread while other experiments run. */
    RunResult runPrepared() const;

    SimulationConfig cfg_;
    RunOptions opts_;

    const Trace* extTrace_ = nullptr;
    const std::vector<LayoutBitmap>* extBitmaps_ = nullptr;
    const std::vector<ArrayBlock>* extPins_ = nullptr;

    BuiltWorkload workload_;
    std::vector<LayoutBitmap> ownBitmaps_;
    std::vector<ArrayBlock> ownPins_;
    bool prepared_ = false;
};

} // namespace dtsim

#endif // DTSIM_CORE_EXPERIMENT_HH
