#include "sim/runner.h"

#include <memory>

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
    return simulate(cfg, {[&spec]() { return make_workload(spec); }},
                    run)[0];
}

namespace {

/** A machine of @p cfg over a fresh copy of each core's workload. */
std::unique_ptr<Machine>
fresh_machine(const MachineConfig &cfg,
              const std::vector<WorkloadFactory> &make)
{
    std::vector<WorkloadPtr> workloads;
    workloads.reserve(make.size());
    for (const WorkloadFactory &f : make) {
        workloads.push_back(f());
    }
    return std::make_unique<Machine>(cfg, std::move(workloads));
}

/**
 * Warm @p machine up, by restoring @p blob when there is one and by
 * running the warmup otherwise, then measure and audit it.
 * @return false, with nothing measured, when the machine rejects
 *         @p blob.
 */
bool
warm_and_measure(Machine &machine, const SnapshotImage *blob,
                 const RunConfig &run, RunTickHook *hook,
                 std::string *audit_findings, TelemetrySession *telemetry,
                 const std::string &label, std::uint32_t trace_pid)
{
    ScopedRunTelemetry scoped(telemetry, &machine, label, trace_pid);
    RunTickHook *run_hook = scoped.hook(hook);
    if (blob == nullptr) {
        scoped.span("warmup",
                    [&] { machine.run(run.warmup_insts, run_hook); });
    } else {
        try {
            scoped.span("snapshot:restore",
                        [&] { machine.restore_snapshot(*blob); });
        } catch (const SnapshotError &) {
            // The cache already checked structure and checksums; what
            // is left is a key collision (config mismatch) or a section
            // that does not decode.
            return false;
        }
    }
    machine.start_measurement();
    scoped.span("measure",
                [&] { machine.run(run.measure_insts, run_hook); });
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
    return true;
}

}  // namespace

std::vector<RunMetrics>
simulate(const MachineConfig &cfg, const std::vector<WorkloadFactory> &make,
         const RunConfig &run, RunTickHook *hook, SnapshotCache *cache,
         std::uint64_t warmup_key, std::string *audit_findings,
         TelemetrySession *telemetry, const std::string &label,
         std::uint32_t trace_pid)
{
    SnapshotBlob blob;
    if (cache != nullptr) {
        // The full machine configuration is part of the key: snapshots
        // are never shared across schemes/prefetchers, because the
        // filter and prefetcher state warmed under one scheme is not
        // the state a straight-through run of another scheme would
        // reach. The model version keeps an older model's warmups from
        // being restored.
        std::uint64_t key = config_fingerprint(cfg, make.size());
        key = hash_combine(key, warmup_key);
        key = hash_combine(key, run.warmup_insts);
        key = hash_combine(key, kModelVersion);
        // A throwing producer (watchdog timeout, injected fault) escapes
        // here and is classified by the job engine as usual.
        blob = cache->fetch(key, [&]() {
            const std::unique_ptr<Machine> warm = fresh_machine(cfg, make);
            warm->run(run.warmup_insts, hook);
            return warm->save_snapshot();
        });
    }
    std::unique_ptr<Machine> machine = fresh_machine(cfg, make);
    if (!warm_and_measure(*machine, blob.get(), run, hook, audit_findings,
                          telemetry, label, trace_pid)) {
        // Cold fallback: identical to a run without the cache.
        machine = fresh_machine(cfg, make);
        warm_and_measure(*machine, nullptr, run, hook, audit_findings,
                         telemetry, label, trace_pid);
    }
    std::vector<RunMetrics> measured;
    measured.reserve(machine->num_cores());
    for (std::size_t i = 0; i < machine->num_cores(); ++i) {
        measured.push_back(machine->measured(i));
    }
    return measured;
}

}  // namespace moka
