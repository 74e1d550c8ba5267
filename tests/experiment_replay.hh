/**
 * @file
 * Test helper: replay a prepared trace through the Experiment facade.
 *
 * The deprecated direct runTrace() overloads that tests used to call
 * are gone (core/run_impl.hh is internal to the facade); this wrapper reproduces their exact semantics on top of
 * Experiment. In particular, passing no pin plan means *no pins*: an
 * explicit empty plan suppresses the facade's automatic pin-plan
 * derivation, matching what the direct calls did.
 */

#ifndef DTSIM_TESTS_EXPERIMENT_REPLAY_HH
#define DTSIM_TESTS_EXPERIMENT_REPLAY_HH

#include <vector>

#include "core/experiment.hh"

namespace dtsim {
namespace test {

inline RunResult
replayTrace(const SystemConfig& cfg, const Trace& trace,
            const std::vector<LayoutBitmap>* bitmaps = nullptr,
            const std::vector<ArrayBlock>* pinned = nullptr,
            const RunOptions& opts = RunOptions{})
{
    static const std::vector<ArrayBlock> no_pins;
    Experiment e(cfg);
    e.replay(trace).options(opts);
    if (bitmaps)
        e.bitmaps(*bitmaps);
    e.pins(pinned ? *pinned : no_pins);
    return e.run();
}

} // namespace test
} // namespace dtsim

#endif // DTSIM_TESTS_EXPERIMENT_REPLAY_HH
