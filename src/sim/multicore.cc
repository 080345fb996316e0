#include "sim/multicore.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

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

std::vector<WorkloadSpec>
mix_members(const std::vector<std::vector<WorkloadSpec>> &mixes)
{
    std::vector<WorkloadSpec> members;
    for (const std::vector<WorkloadSpec> &mix : mixes) {
        for (const WorkloadSpec &w : mix) {
            if (std::none_of(members.begin(), members.end(),
                             [&w](const WorkloadSpec &m) {
                                 return m.name == w.name;
                             })) {
                members.push_back(w);
            }
        }
    }
    return members;
}

MatrixColumn
isolation_column(const MulticoreConfig &mc, L1dPrefetcherKind prefetcher)
{
    MachineConfig cfg = default_config(mc.cores);
    cfg.l1d_prefetcher = prefetcher;
    cfg.scheme = scheme_discard();
    return machine_column("isolation", cfg);
}

std::uint64_t
mix_step_budget(const MulticoreConfig &mc, const std::vector<double> &iso_ipc)
{
    const std::uint64_t per_core =
        16 * (mc.warmup_insts + mc.measure_insts);
    const auto slowest = std::min_element(iso_ipc.begin(), iso_ipc.end());
    if (slowest == iso_ipc.end() || !(*slowest > 0.0)) {
        return per_core * mc.cores;
    }
    // Each member's pace relative to the slowest, exactly 1 for equal
    // IPCs, so equal IPCs sum to exactly the cores.
    double paces = 0.0;
    for (const double ipc : iso_ipc) {
        paces += ipc / *slowest;
    }
    return static_cast<std::uint64_t>(
        std::ceil(static_cast<double>(per_core) * paces));
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

}  // namespace moka
