/**
 * @file
 * Experiment runner: warmup + measured region for one cell, on one
 * core or a multi-core mix, mirroring the paper's SimPoint
 * methodology at a laptop-friendly scale.
 */
#ifndef MOKASIM_SIM_RUNNER_H
#define MOKASIM_SIM_RUNNER_H

#include <functional>
#include <string>
#include <vector>

#include "sim/machine.h"
#include "trace/suites.h"

namespace moka {

/**
 * Default warmup budget shared by the single-core RunConfig and the
 * multicore harness (sim/multicore.h) so the two entry points cannot
 * silently drift apart. Snapshot warmup-reuse keys include the warmup
 * budget, so a change here also invalidates cached snapshots.
 */
inline constexpr InstCount kDefaultWarmupInsts = 200'000;

/** Instruction budgets for one run. */
struct RunConfig
{
    InstCount warmup_insts = kDefaultWarmupInsts;
    InstCount measure_insts = 800'000;

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("warmup_insts", s.warmup_insts...);
        v("measure_insts", s.measure_insts...);
    }

    /** Scale both budgets by @p factor (for --full sweeps). */
    RunConfig scaled(double factor) const
    {
        RunConfig r = *this;
        r.warmup_insts = static_cast<InstCount>(
            static_cast<double>(warmup_insts) * factor);
        r.measure_insts = static_cast<InstCount>(
            static_cast<double>(measure_insts) * factor);
        return r;
    }
};

/**
 * Run @p spec single-core under @p cfg: warm up, measure, return the
 * measured-region metrics (simulate() with one cold core).
 */
RunMetrics run_single(const MachineConfig &cfg, const WorkloadSpec &spec,
                      const RunConfig &run);

class SnapshotCache;
class TelemetrySession;

/** Builds a fresh, position-zero copy of one core's workload. */
using WorkloadFactory = std::function<WorkloadPtr()>;

/**
 * The one run function: build a machine of @p cfg with one core per
 * factory in @p make, warm it up, measure it, audit it, and return
 * each core's measured-region metrics in core order.
 *
 * Without a @p cache the warmup runs cold. With one, it is resolved
 * through the cache under a key that folds the machine config
 * fingerprint (for the core count), @p warmup_key (the caller's
 * identity of the workloads), the warmup budget and kModelVersion.
 * Hit or miss, the measuring machine is then built fresh and restored
 * from the blob (traced as a "snapshot:restore" span), so both paths
 * run the same code and every miss round-trips the serialization. A
 * snapshot the machine rejects (a config mismatch or a section that
 * does not decode) falls back to a cold warmup on another fresh
 * machine: never a crash, never a partial restore. Either way the
 * measured region is byte-identical to a cold run's.
 *
 * @p hook (may be null: watchdog, fault injection) is threaded into
 * every Machine::run, and a throwing hook or warmup producer escapes.
 * Each factory is invoked once per machine built, so it must yield
 * identical replay streams. In audit-enabled builds the end-of-run
 * sweep's findings are returned through @p audit_findings (when
 * non-null) as well as the global failure handler. With an active
 * @p telemetry session the run is sampled per adaptive epoch into
 * `<dir>/<label>.epochs.{csv,jsonl}`, and its phases and per-core
 * counter tracks are traced under process id @p trace_pid.
 */
std::vector<RunMetrics>
simulate(const MachineConfig &cfg, const std::vector<WorkloadFactory> &make,
         const RunConfig &run, RunTickHook *hook = nullptr,
         SnapshotCache *cache = nullptr, std::uint64_t warmup_key = 0,
         std::string *audit_findings = nullptr,
         TelemetrySession *telemetry = nullptr, const std::string &label = "",
         std::uint32_t trace_pid = 0);

/**
 * Convenience: default Table IV machine with @p prefetcher and
 * @p scheme.
 */
MachineConfig make_config(L1dPrefetcherKind prefetcher,
                          const SchemeConfig &scheme);

}  // namespace moka

#endif  // MOKASIM_SIM_RUNNER_H
