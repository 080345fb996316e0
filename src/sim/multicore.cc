#include "sim/multicore.h"

#include "common/rng.h"
#include "sim/runner.h"
#include "telemetry/timeseries.h"

namespace moka {

std::vector<std::vector<WorkloadSpec>>
make_mixes(const std::vector<WorkloadSpec> &roster, std::size_t count,
           unsigned cores, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<WorkloadSpec>> mixes;
    mixes.reserve(count);
    for (std::size_t m = 0; m < count; ++m) {
        std::vector<WorkloadSpec> mix;
        mix.reserve(cores);
        for (unsigned c = 0; c < cores; ++c) {
            mix.push_back(roster[rng.below(roster.size())]);
        }
        mixes.push_back(std::move(mix));
    }
    return mixes;
}

double
IsolationCache::get_or_compute(const std::string &name,
                               const std::function<double()> &compute)
{
    {
        SimMutexLock lock(&mu_);
        auto it = map_.find(name);
        if (it != map_.end()) {
            return it->second;
        }
    }
    // Computed outside the lock: an isolation run takes far longer
    // than a redundant duplicate is worth blocking other workers for,
    // and the run is deterministic so duplicates agree.
    const double value = compute();
    SimMutexLock lock(&mu_);
    return map_.try_emplace(name, value).first->second;
}

std::size_t
IsolationCache::size() const
{
    SimMutexLock lock(&mu_);
    return map_.size();
}

namespace {

double
isolation_ipc(L1dPrefetcherKind prefetcher, const WorkloadSpec &spec,
              const MulticoreConfig &mc, IsolationCache &iso,
              RunTickHook *hook)
{
    return iso.get_or_compute(spec.name, [&]() {
        // Isolation run: multi-core machine configuration (bigger
        // LLC, more channels), a single active core, baseline scheme.
        MachineConfig cfg = default_config(mc.cores);
        cfg.l1d_prefetcher = prefetcher;
        cfg.scheme = scheme_discard();
        std::vector<WorkloadPtr> w;
        w.push_back(make_workload(spec));
        Machine machine(cfg, std::move(w));
        machine.run(mc.warmup_insts, hook);
        machine.start_measurement();
        machine.run(mc.measure_insts, hook);
        return machine.measured(0).ipc();
    });
}

}  // namespace

double
weighted_ipc(L1dPrefetcherKind prefetcher, const SchemeConfig &scheme,
             const std::vector<WorkloadSpec> &mix,
             const MulticoreConfig &mc, IsolationCache &iso,
             RunTickHook *hook, TelemetrySession *telemetry,
             const std::string &label, std::uint32_t trace_pid)
{
    MachineConfig cfg = default_config(static_cast<unsigned>(mix.size()));
    cfg.l1d_prefetcher = prefetcher;
    cfg.scheme = scheme;
    std::vector<WorkloadPtr> workloads;
    workloads.reserve(mix.size());
    for (const WorkloadSpec &spec : mix) {
        workloads.push_back(make_workload(spec));
    }
    Machine machine(cfg, std::move(workloads));
    ScopedRunTelemetry scoped(telemetry, &machine, label, trace_pid);
    RunTickHook *run_hook = scoped.hook(hook);
    scoped.span("warmup",
                [&] { machine.run(mc.warmup_insts, run_hook); });
    machine.start_measurement();
    scoped.span("measure",
                [&] { machine.run(mc.measure_insts, run_hook); });

    double sum = 0.0;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        const double iso_ipc =
            isolation_ipc(prefetcher, mix[i], mc, iso, hook);
        if (iso_ipc > 0.0) {
            sum += machine.measured(i).ipc() / iso_ipc;
        }
    }
    return sum;
}

}  // namespace moka
