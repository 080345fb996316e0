#include "sim/runner.h"

#include "audit/audit.h"
#include "common/check.h"
#include "common/hashing.h"
#include "snapshot/cache.h"
#include "snapshot/format.h"
#include "telemetry/telemetry.h"
#include "telemetry/timeseries.h"

namespace moka {

MachineConfig
make_config(L1dPrefetcherKind prefetcher, const SchemeConfig &scheme)
{
    MachineConfig cfg = default_config(1);
    cfg.l1d_prefetcher = prefetcher;
    cfg.scheme = scheme;
    return cfg;
}

RunMetrics
run_single(const MachineConfig &cfg, const WorkloadSpec &spec,
           const RunConfig &run)
{
    return run_single_workload(cfg, make_workload(spec), run,
                               /*hook=*/nullptr);
}

RunMetrics
run_single_workload(const MachineConfig &cfg, WorkloadPtr workload,
                    const RunConfig &run, RunTickHook *hook,
                    std::string *audit_findings,
                    TelemetrySession *telemetry, const std::string &label,
                    std::uint32_t trace_pid)
{
    std::vector<WorkloadPtr> w;
    w.push_back(std::move(workload));
    Machine machine(cfg, std::move(w));
    ScopedRunTelemetry scoped(telemetry, &machine, label, trace_pid);
    hook = scoped.hook(hook);
    scoped.span("warmup", [&] { machine.run(run.warmup_insts, hook); });
    machine.start_measurement();
    scoped.span("measure", [&] { machine.run(run.measure_insts, hook); });
#if SIM_AUDIT_ENABLED
    // Final full-machine sweep so even sub-cadence runs get audited.
    AuditReport report(/*forward=*/true);
    machine.audit(report);
    if (audit_findings != nullptr && !report.ok()) {
        *audit_findings = report.to_string();
    }
#else
    (void)audit_findings;
#endif
    return machine.measured(0);
}

RunMetrics
run_single_workload_snapshot(const MachineConfig &cfg,
                             const WorkloadFactory &make,
                             const RunConfig &run, RunTickHook *hook,
                             SnapshotCache &cache,
                             std::uint64_t warmup_key,
                             std::string *audit_findings,
                             TelemetrySession *telemetry,
                             const std::string &label,
                             std::uint32_t trace_pid)
{
    // The full machine configuration is part of the key: snapshots
    // are never shared across schemes/prefetchers, because the filter
    // and prefetcher state warmed under one scheme is not the state a
    // straight-through run of another scheme would reach. The model
    // version keeps an older model's warmups from being restored.
    std::uint64_t key = config_fingerprint(cfg, 1);
    key = hash_combine(key, warmup_key);
    key = hash_combine(key, run.warmup_insts);
    key = hash_combine(key, kModelVersion);

    SnapshotCache::FetchOutcome outcome;
    // A throwing producer (watchdog timeout, injected fault) escapes
    // here and is classified by the job engine as usual.
    const SnapshotBlob blob = cache.fetch(
        key,
        [&]() {
            std::vector<WorkloadPtr> w;
            w.push_back(make());
            Machine machine(cfg, std::move(w));
            machine.run(run.warmup_insts, hook);
            return machine.save_snapshot();
        },
        &outcome);

    {
        // Hit or miss, the measuring machine is built by restore so
        // both paths are the same code path (and a miss round-trips
        // the serialization every time, keeping it honest).
        std::vector<WorkloadPtr> w;
        w.push_back(make());
        Machine machine(cfg, std::move(w));
        ScopedRunTelemetry scoped(telemetry, &machine, label, trace_pid);
        // Chained hook is scoped to this block: the cold-fallback
        // path below must chain the *original* hook afresh.
        RunTickHook *run_hook = scoped.hook(hook);
        bool restored = false;
        try {
            scoped.span("snapshot:restore",
                        [&] { machine.restore_snapshot(*blob); });
            restored = true;
        } catch (const SnapshotError &) {
            // The cache already checked structure and checksums; what
            // is left is a key collision (config mismatch) or a section
            // that does not decode. Classified (kSnapshotInvalid
            // family), and the run falls back to a cold warmup below.
        }
        if (restored) {
            machine.start_measurement();
            scoped.span("measure",
                        [&] { machine.run(run.measure_insts, run_hook); });
#if SIM_AUDIT_ENABLED
            AuditReport report(/*forward=*/true);
            machine.audit(report);
            if (audit_findings != nullptr && !report.ok()) {
                *audit_findings = report.to_string();
            }
#else
            (void)audit_findings;
#endif
            return machine.measured(0);
        }
    }
    // Cold fallback: identical to a run without snapshot reuse.
    return run_single_workload(cfg, make(), run, hook, audit_findings,
                               telemetry, label, trace_pid);
}

}  // namespace moka
