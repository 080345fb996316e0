/** @file Integration tests for the multi-core runner. */
#include <gtest/gtest.h>

#include "sim/multicore.h"

namespace moka {
namespace {

TEST(Multicore, MixGenerationDeterministic)
{
    const auto roster = seen_workloads();
    const auto a = make_mixes(roster, 5, 4, 11);
    const auto b = make_mixes(roster, 5, 4, 11);
    ASSERT_EQ(a.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        ASSERT_EQ(a[i].size(), 4u);
        for (std::size_t c = 0; c < 4; ++c) {
            EXPECT_EQ(a[i][c].name, b[i][c].name);
        }
    }
}

TEST(Multicore, BaselineSpeedupIsUnity)
{
    const auto roster = sample(seen_workloads(), 8);
    const auto mixes = make_mixes(roster, 1, 2, 3);
    MulticoreConfig mc;
    mc.cores = 2;
    mc.warmup_insts = 10'000;
    mc.measure_insts = 40'000;
    IsolationCache iso;
    const double ws = weighted_ipc(L1dPrefetcherKind::kBerti,
                                   scheme_discard(), mixes[0], mc, iso);
    const double wb = weighted_ipc(L1dPrefetcherKind::kBerti,
                                   scheme_discard(), mixes[0], mc, iso);
    ASSERT_GT(wb, 0.0);
    EXPECT_NEAR(ws / wb, 1.0, 1e-9);
}

TEST(Multicore, AllCoresReachBudget)
{
    MachineConfig cfg = default_config(2);
    cfg.scheme = scheme_discard();
    std::vector<WorkloadPtr> w;
    const auto roster = seen_workloads();
    w.push_back(make_workload(roster[0]));
    w.push_back(make_workload(roster[50]));
    Machine machine(cfg, std::move(w));
    machine.run(30'000);
    EXPECT_GE(machine.metrics(0).instructions, 30'000u);
    EXPECT_GE(machine.metrics(1).instructions, 30'000u);
}

TEST(Multicore, IsolationCacheReused)
{
    const auto roster = sample(seen_workloads(), 4);
    std::vector<WorkloadSpec> mix = {roster[0], roster[0]};
    MulticoreConfig mc;
    mc.cores = 2;
    mc.warmup_insts = 5'000;
    mc.measure_insts = 20'000;
    IsolationCache iso;
    weighted_ipc(L1dPrefetcherKind::kBerti, scheme_discard(), mix, mc,
                 iso);
    // One unique workload in the mix: exactly one isolation entry.
    EXPECT_EQ(iso.size(), 1u);
}

TEST(Multicore, SharedLlcContentionVisible)
{
    // The same workload runs slower per-core in a 2-core machine than
    // alone on the same configuration (shared LLC + DRAM).
    const WorkloadSpec spec = [] {
        for (const WorkloadSpec &s : seen_workloads()) {
            if (s.family == Family::kStream) {
                return s;
            }
        }
        return seen_workloads().front();
    }();
    MachineConfig cfg = default_config(2);
    cfg.scheme = scheme_discard();

    std::vector<WorkloadPtr> solo;
    solo.push_back(make_workload(spec));
    Machine alone(cfg, std::move(solo));
    alone.run(10'000);
    alone.start_measurement();
    alone.run(40'000);

    std::vector<WorkloadPtr> pair;
    pair.push_back(make_workload(spec));
    pair.push_back(make_workload(spec));
    Machine both(cfg, std::move(pair));
    both.run(10'000);
    both.start_measurement();
    both.run(40'000);

    EXPECT_LE(both.measured(0).ipc(), alone.measured(0).ipc() * 1.02);
}

}  // namespace
}  // namespace moka
