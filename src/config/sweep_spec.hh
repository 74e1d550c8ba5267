/**
 * @file
 * Data-driven parameter sweeps: a grid of registered-parameter values
 * parsed from a config file, expanded into one SimulationConfig per
 * grid point. New parameter studies need a .conf file, not new C++ --
 * every figure and ablation grid of the paper ships as one under
 * examples/sweeps/.
 *
 * Sweep-file syntax is the plain config-file syntax plus axis lines:
 *
 *     workload.kind = web             # base assignment
 *     sweep system.stripe_unit_bytes = 4096, 8192, 16384
 *     sweep system.kind = segm, for   # axes multiply (grid)
 *
 * Axes expand as a cartesian product in file order, first axis
 * slowest (the fig07 tables read: first axis = rows, later axes =
 * columns). Grid points that fail cross-parameter validation are
 * marked infeasible rather than aborting the sweep -- the paper's
 * FOR+HDC curves stop early for exactly this reason.
 */

#ifndef DTSIM_CONFIG_SWEEP_SPEC_HH
#define DTSIM_CONFIG_SWEEP_SPEC_HH

#include <string>
#include <utility>
#include <vector>

#include "config/sim_config.hh"

namespace dtsim {

/** One swept parameter and its values (canonical text form). */
struct SweepAxis
{
    std::string key;
    std::vector<std::string> values;
};

/** A sweep: a base configuration plus the axes varied over it. */
struct SweepSpec
{
    SimulationConfig base;
    std::vector<SweepAxis> axes;

    /** Grid size (product of axis lengths; 1 with no axes). */
    std::size_t points() const;
};

/** One expanded grid point. */
struct SweepPoint
{
    SimulationConfig cfg;

    /** The (key, value) coordinates of this point, in axis order. */
    std::vector<std::pair<std::string, std::string>> coords;

    /** False when the combination fails validateConfig(). */
    bool feasible = true;

    /** First validation error when infeasible. */
    std::string whyNot;
};

/**
 * Parse the sweep file at `path` on top of `spec->base` (callers
 * prefill it; assignments in the file override it). Axis keys and
 * every axis value are checked against the registry immediately, so
 * errors carry file:line positions. Returns false + `err` on the
 * first error.
 */
bool loadSweepFile(const std::string& path, SweepSpec& spec,
                   std::string& err);

/** Same, from in-memory text (`origin` names it in errors). */
bool loadSweepText(const std::string& text,
                   const std::string& origin, SweepSpec& spec,
                   std::string& err);

/**
 * Expand the grid: one SweepPoint per combination, first axis
 * slowest. Combinations failing cross-validation come back with
 * feasible = false. Returns an empty vector with `err` set when two
 * axes set one field (the same key, or a deprecated alias and its
 * key), an axis names an unknown key or a value fails to
 * parse (only possible for hand-built specs; loadSweepFile
 * pre-checks).
 */
std::vector<SweepPoint> expandSweep(const SweepSpec& spec,
                                    std::string& err);

} // namespace dtsim

#endif // DTSIM_CONFIG_SWEEP_SPEC_HH
