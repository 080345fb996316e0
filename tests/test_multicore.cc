/** @file Integration tests for the multi-core runner. */
#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "sim/jobs/store.h"
#include "sim/multicore.h"

namespace moka {
namespace {

MulticoreConfig
small_mc()
{
    MulticoreConfig mc;
    mc.cores = 2;
    mc.warmup_insts = 5'000;
    mc.measure_insts = 20'000;
    return mc;
}

RunConfig
budgets(const MulticoreConfig &mc)
{
    return {mc.warmup_insts, mc.measure_insts};
}

/** A fresh, empty directory under the test temp dir. */
std::string
temp_dir(const char *tag)
{
    const std::string dir =
        std::string(::testing::TempDir()) + "moka_multicore_" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Number of result records in store directory @p dir. */
std::size_t
stored_results(const std::string &dir)
{
    std::size_t n = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        n += entry.path().extension() == ".res" ? 1 : 0;
    }
    return n;
}

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
    const MulticoreConfig mc = small_mc();
    const std::vector<MatrixColumn> isolation = {
        isolation_column(mc, L1dPrefetcherKind::kBerti)};
    const std::vector<WorkloadSpec> members = mix_members(mixes);
    const EngineReport iso = run_matrix(
        make_matrix(members, isolation, budgets(mc)), BenchArgs(), isolation);
    ASSERT_TRUE(iso.all_completed());

    MachineConfig cfg = default_config(mc.cores);
    cfg.scheme = scheme_discard();
    std::vector<WorkloadFactory> make;
    for (const WorkloadSpec &w : mixes[0]) {
        make.push_back([w]() { return make_workload(w); });
    }
    std::map<std::string, double> iso_ipc;
    for (std::size_t m = 0; m < members.size(); ++m) {
        iso_ipc[members[m].name] =
            cell_metrics(iso, members.size(), 0, m)->ipc();
    }
    auto weighted = [&]() {
        const std::vector<RunMetrics> cores =
            simulate(cfg, make, budgets(mc));
        double sum = 0.0;
        for (std::size_t c = 0; c < cores.size(); ++c) {
            sum += cores[c].ipc() / iso_ipc.at(mixes[0][c].name);
        }
        return sum;
    };
    const double ws = weighted();
    const double wb = weighted();
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
    IsolationCache iso;
    int computed = 0;
    auto compute = [&computed]() {
        ++computed;
        return 0.5;
    };
    EXPECT_EQ(iso.get_or_compute("a", compute), 0.5);
    EXPECT_EQ(iso.get_or_compute("a", [] { return 9.0; }), 0.5);
    EXPECT_EQ(iso.get_or_compute("b", compute), 0.5);
    EXPECT_EQ(computed, 2);
    EXPECT_EQ(iso.size(), 2u);
}

TEST(Multicore, SharedMemberIsOneIsolationCell)
{
    const auto roster = sample(seen_workloads(), 4);
    const std::vector<std::vector<WorkloadSpec>> mixes = {
        {roster[0], roster[1]}, {roster[1], roster[2]}};
    const std::vector<WorkloadSpec> members = mix_members(mixes);
    ASSERT_EQ(members.size(), 3u);
    EXPECT_EQ(members[0].name, roster[0].name);
    EXPECT_EQ(members[1].name, roster[1].name);
    EXPECT_EQ(members[2].name, roster[2].name);

    const MulticoreConfig mc = small_mc();
    const std::vector<MatrixColumn> isolation = {
        isolation_column(mc, L1dPrefetcherKind::kBerti)};
    const std::vector<JobSpec> jobs =
        make_matrix(members, isolation, budgets(mc));
    BenchArgs args;
    args.shard_dir = temp_dir("iso_store");
    const EngineReport first = run_matrix(jobs, args, isolation);
    ASSERT_TRUE(first.all_completed());
    EXPECT_EQ(first.ran(), 3u);
    EXPECT_EQ(stored_results(args.shard_dir), 3u);

    // Another process over the same store runs none of them again.
    const EngineReport again = run_matrix(jobs, args, isolation);
    EXPECT_EQ(again.ran(), 0u);
    EXPECT_EQ(again.stored, 3u);
    for (std::size_t m = 0; m < members.size(); ++m) {
        EXPECT_EQ(cell_metrics(again, 3, 0, m)->cycles,
                  cell_metrics(first, 3, 0, m)->cycles);
    }
}

TEST(Multicore, IsolationKeyCoversPrefetcherAndBudgets)
{
    // A name-keyed IsolationCache serves one workload's IPC to all
    // three of these; job_key tells them apart.
    const std::vector<WorkloadSpec> member = {seen_workloads().front()};
    const MulticoreConfig mc = small_mc();
    MulticoreConfig longer = mc;
    longer.measure_insts *= 2;
    const std::uint64_t base = job_key(make_matrix(
        member, {isolation_column(mc, L1dPrefetcherKind::kBerti)},
        budgets(mc))[0]);
    const std::uint64_t ipcp = job_key(make_matrix(
        member, {isolation_column(mc, L1dPrefetcherKind::kIpcp)},
        budgets(mc))[0]);
    const std::uint64_t measure = job_key(make_matrix(
        member, {isolation_column(longer, L1dPrefetcherKind::kBerti)},
        budgets(longer))[0]);
    EXPECT_NE(base, ipcp);
    EXPECT_NE(base, measure);
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
