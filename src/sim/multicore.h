/**
 * @file
 * Multi-core evaluation (paper §IV-A2 and Fig. 19): randomly
 * generated 8-core mixes, weighted speedup over the Discard PGC
 * baseline with isolation IPCs, and the replay-until-all-finish rule.
 */
#ifndef MOKASIM_SIM_MULTICORE_H
#define MOKASIM_SIM_MULTICORE_H

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "filter/policies.h"
#include "sim/machine.h"
#include "sim/runner.h"
#include "trace/suites.h"

namespace moka {

class TelemetrySession;

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
 * Isolation-IPC memo keyed by workload name. Thread-safe so fig19's
 * (mix, scheme) jobs can share one cache across engine workers: a
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

/**
 * Weighted IPC of @p mix under @p scheme: sum of
 * IPC_multicore / IPC_isolation per core (paper's metric). Isolation
 * IPCs are computed on demand against the multi-core machine
 * configuration with the baseline (Discard PGC) scheme and memoized
 * in @p iso. @p hook (may be null) is threaded into every
 * Machine::run for watchdog/fault-injection coverage.
 *
 * With an active @p telemetry session, the multi-core machine is
 * sampled per adaptive epoch (per-core T_a / PGC-accuracy tracks
 * under process id @p trace_pid, timeseries file named @p label).
 * Isolation runs stay untelemetried: their results are memoized
 * across jobs, so instrumenting them would attribute one job's
 * samples to another's track.
 */
double weighted_ipc(L1dPrefetcherKind prefetcher,
                    const SchemeConfig &scheme,
                    const std::vector<WorkloadSpec> &mix,
                    const MulticoreConfig &mc, IsolationCache &iso,
                    RunTickHook *hook = nullptr,
                    TelemetrySession *telemetry = nullptr,
                    const std::string &label = "",
                    std::uint32_t trace_pid = 0);

}  // namespace moka

#endif  // MOKASIM_SIM_MULTICORE_H
