/**
 * @file
 * Multi-core evaluation (paper §IV-A2 and Fig. 19): randomly
 * generated 8-core mixes and the isolation cells their weighted
 * speedups divide by. A mix runs through simulate() like any other
 * cell; Machine::run applies the replay-until-all-finish rule.
 */
#ifndef MOKASIM_SIM_MULTICORE_H
#define MOKASIM_SIM_MULTICORE_H

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "filter/policies.h"
#include "sim/experiment.h"
#include "sim/machine.h"
#include "sim/runner.h"
#include "trace/suites.h"

namespace moka {

/** Multi-core run parameters. */
struct MulticoreConfig
{
    unsigned cores = 8;
    //! shared with RunConfig so the two entry points cannot drift
    InstCount warmup_insts = kDefaultWarmupInsts;
    InstCount measure_insts = 400'000;
};

/** Draw @p count random @p cores-wide mixes from @p roster. */
std::vector<std::vector<WorkloadSpec>>
make_mixes(const std::vector<WorkloadSpec> &roster, std::size_t count,
           unsigned cores, std::uint64_t seed);

/**
 * The distinct workloads of @p mixes, in first-seen order (mix by mix,
 * core by core): one isolation cell each, however many mixes share it.
 */
std::vector<WorkloadSpec>
mix_members(const std::vector<std::vector<WorkloadSpec>> &mixes);

/**
 * The isolation column of a weighted speedup (paper §IV-A2): the
 * multi-core configuration for mc.cores cores, run with one active
 * core and @p prefetcher under the Discard baseline. Its cells are
 * keyed by job_key like any machine_column's, so the key covers the
 * prefetcher, the budgets make_matrix gives them and every
 * MachineConfig leaf.
 */
MatrixColumn isolation_column(const MulticoreConfig &mc,
                              L1dPrefetcherKind prefetcher);

/**
 * Watchdog step budget of one machine of a mix whose members ran at
 * @p iso_ipc in their isolation cells: 16 x (warmup + measure) x
 * sum(iso_ipc) / min(iso_ipc). Machine::run replays every core until
 * the slowest has retired its budget, and the others step at their
 * own pace meanwhile, so the isolation IPCs predict the mix's steps;
 * the factor 16 is slack. Equal IPCs give 16 x cores x (warmup +
 * measure), which is also the budget when a member has no positive
 * isolation IPC.
 */
std::uint64_t mix_step_budget(const MulticoreConfig &mc,
                              const std::vector<double> &iso_ipc);

/**
 * Isolation-IPC memo keyed by workload name alone: no prefetcher,
 * budgets or machine config. perfbench's mix8 workload is its only
 * user; fig19 keeps its isolation IPCs in isolation_column cells.
 * Thread-safe so one cache can be shared across engine workers: a
 * value may be computed twice under contention, but isolation runs
 * are deterministic, so whichever insert wins stores the same number
 * and parallel sweeps stay byte-identical to serial ones.
 */
class IsolationCache
{
  public:
    /**
     * Return the memoized IPC for @p name, or invoke @p compute
     * (outside the lock — isolation runs are long) and memoize it.
     */
    double get_or_compute(const std::string &name,
                          const std::function<double()> &compute)
        SIM_EXCLUDES(mu_);

    /** Number of memoized entries. */
    std::size_t size() const SIM_EXCLUDES(mu_);

  private:
    mutable SimMutex mu_;
    std::map<std::string, double> map_ SIM_GUARDED_BY(mu_);
};

}  // namespace moka

#endif  // MOKASIM_SIM_MULTICORE_H
