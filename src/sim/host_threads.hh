/**
 * @file
 * How many host threads a parallel phase of the simulator may use.
 *
 * Two phases run on host threads: Experiment::runAll()
 * (core/experiment.hh), which runs independent simulations side by
 * side, and server-workload generation (workload/server_models.hh),
 * which replays whole simulated days side by side. Both take their
 * thread count from here, so one environment variable caps them both.
 */

#ifndef DTSIM_SIM_HOST_THREADS_HH
#define DTSIM_SIM_HOST_THREADS_HH

namespace dtsim {

/**
 * DTSIM_JOBS when set to a positive integer, otherwise (unset or 0)
 * std::thread::hardware_concurrency() (minimum 1). A DTSIM_JOBS that
 * is not a whole non-negative number (junk, trailing characters, a
 * sign) is fatal and names the variable.
 */
unsigned hostThreads();

} // namespace dtsim

#endif // DTSIM_SIM_HOST_THREADS_HH
