/**
 * @file
 * Experiment: the one front door for running a simulation.
 *
 * An Experiment owns the whole setup of a run -- validation, stream
 * resolution, the workload, FOR layout bitmaps, the HDC pin plan and
 * output wiring -- behind a fluent interface and a single run():
 *
 *     RunResult r = Experiment(sim).run();
 *
 *     Experiment e(sim);                     // replay a saved trace
 *     e.replay(trace).statsTo(StatsSink::file("out.txt"));
 *     RunResult r = e.run();
 *
 * Two input modes:
 *
 *  - **Built** (default): prepare() validates the full configuration
 *    (fatal on errors) and takes the workload, the FOR bitmaps and
 *    the oracle-policy HDC pin plan from a SweepCache -- its own, or
 *    a sweep's shared one. system.streams = 0 resolves to the
 *    workload's concurrency.
 *
 *  - **Replay** (replay() called): the caller supplies the trace, and
 *    the bitmaps for FOR; no workload build and no full config
 *    validation. The oracle pin plan, unless supplied, is derived
 *    from the trace. system.streams = 0 resolves to SystemConfig's
 *    default, as the trace carries no concurrency.
 *
 * Output destinations default from config().output and can be
 * overridden fluently (statsTo / traceTo / statsEvery). Batches of
 * Experiments run concurrently through runAll(), with results
 * bit-identical to calling run() on each in order.
 */

#ifndef DTSIM_CORE_EXPERIMENT_HH
#define DTSIM_CORE_EXPERIMENT_HH

#include <memory>
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
    /**
     * An experiment over the workload and system `sim` describes,
     * with its own SweepCache.
     */
    explicit Experiment(SimulationConfig sim = SimulationConfig{});

    /**
     * The same, taking its inputs from `cache`, which other
     * experiments (a sweep's points) may share; `cache` must outlive
     * the Experiment.
     */
    Experiment(SimulationConfig sim, SweepCache& cache);

    /** Move-only: a lone run owns its cache, which may be large. */
    Experiment(Experiment&&) = default;
    Experiment& operator=(Experiment&&) = default;
    Experiment(const Experiment&) = delete;
    Experiment& operator=(const Experiment&) = delete;

    /** @name Inputs. */
    ///@{

    /**
     * Replay `t` instead of building a workload; `t` must outlive the
     * Experiment. Disables workload building and full-config
     * validation (the caller vouches for the config). The records
     * are still checked at prepare(): a zero-length record, or one
     * past the array's addressable blocks, is fatal and names the
     * record's index.
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
     * the oracle policy.
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
     * or from its system./disk./hdc./trace./fault. groups (replay
     * mode).
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
     * Resolve the experiment: validate and take the workload from the
     * cache (built mode), take bitmaps/pins from it, and fill output
     * options from config().output. Each cache call is timed into
     * runOptions().prep. Idempotent; run() calls it automatically.
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
    /** runTrace() over the prepared inputs; safe to call from a
     *  worker thread while other experiments run. */
    RunResult runPrepared() const;

    SimulationConfig cfg_;
    RunOptions opts_;

    /** Where the inputs come from: ownCache_, or a shared cache. */
    SweepCache* cache_ = nullptr;
    std::unique_ptr<SweepCache> ownCache_;

    /** Set fluently, or by prepare() from the cache; a trace set
     *  before prepare() selects replay mode. */
    const Trace* trace_ = nullptr;
    const std::vector<LayoutBitmap>* bitmaps_ = nullptr;
    const std::vector<ArrayBlock>* pins_ = nullptr;
    bool prepared_ = false;
};

} // namespace dtsim

#endif // DTSIM_CORE_EXPERIMENT_HH
