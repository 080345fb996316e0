/**
 * @file
 * Single-core experiment runner: warmup + measured region for one
 * (workload, scheme) pair, mirroring the paper's SimPoint
 * methodology at a laptop-friendly scale.
 */
#ifndef MOKASIM_SIM_RUNNER_H
#define MOKASIM_SIM_RUNNER_H

#include <functional>

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
 * measured-region metrics.
 */
RunMetrics run_single(const MachineConfig &cfg, const WorkloadSpec &spec,
                      const RunConfig &run);

class TelemetrySession;

/**
 * Engine-facing variant: run an already-constructed @p workload with
 * a cooperative @p hook threaded into Machine::run (watchdog / fault
 * injection; may be null). In audit-enabled builds the end-of-run
 * sweep's findings are returned through @p audit_findings (when
 * non-null) instead of only the global failure handler, so the job
 * engine can classify them as JobErrorCode::kAuditFailure.
 *
 * When @p telemetry is an active session, the run is sampled per
 * adaptive epoch into `<dir>/<label>.epochs.{csv,jsonl}` and its
 * warmup/measure phases plus per-epoch counter tracks are traced
 * under process id @p trace_pid.
 */
RunMetrics run_single_workload(const MachineConfig &cfg,
                               WorkloadPtr workload, const RunConfig &run,
                               RunTickHook *hook,
                               std::string *audit_findings = nullptr,
                               TelemetrySession *telemetry = nullptr,
                               const std::string &label = "",
                               std::uint32_t trace_pid = 0);

class SnapshotCache;

/** Builds a fresh, position-zero copy of one run's workload. */
using WorkloadFactory = std::function<WorkloadPtr()>;

/**
 * Snapshot-reusing variant of run_single_workload: the warmup phase
 * is resolved through @p cache under @p warmup_key (callers fold the
 * workload identity in; the machine config fingerprint, warmup
 * budget and kModelVersion are folded in here). On a cache hit the
 * run restores the warmed architectural state (traced as a
 * "snapshot:restore" span) instead of re-simulating the warmup; on a
 * miss it warms up once, publishes the snapshot, and still goes
 * through restore so hit and miss runs follow the identical code
 * path — the measured region is byte-identical to a straight-through
 * run either way.
 *
 * A snapshot the cache produced but the machine rejects (corrupt or
 * config-mismatched bytes) is counted under the "snapshot.invalid"
 * telemetry counter and the run falls back to a cold warmup — never
 * a crash, never a silent partial restore.
 *
 * @p make is invoked once per machine built (warmup producer and
 * measuring machine), so it must yield identical replay streams.
 */
RunMetrics run_single_workload_snapshot(
    const MachineConfig &cfg, const WorkloadFactory &make,
    const RunConfig &run, RunTickHook *hook, SnapshotCache &cache,
    std::uint64_t warmup_key, std::string *audit_findings = nullptr,
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
