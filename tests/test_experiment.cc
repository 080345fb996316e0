/** @file Unit tests for the experiment helpers. */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>

#include "filter/policies.h"
#include "sim/experiment.h"
#include "sim/jobs/store.h"
#include "trace/trace_io.h"

namespace moka {
namespace {

TEST(Experiment, SpeedupRatio)
{
    RunMetrics a, b;
    a.instructions = 1000;
    a.cycles = 500;  // IPC 2.0
    b.instructions = 1000;
    b.cycles = 1000;  // IPC 1.0
    EXPECT_DOUBLE_EQ(speedup(a, b), 2.0);
}

TEST(Experiment, CoverageGain)
{
    RunMetrics m, base;
    base.l1d.misses = 100;
    m.l1d.misses = 60;
    EXPECT_DOUBLE_EQ(coverage_gain(m, base), 0.4);
    base.l1d.misses = 0;
    EXPECT_DOUBLE_EQ(coverage_gain(m, base), 0.0);
}

TEST(Experiment, BenchArgsDefaults)
{
    char prog[] = "bench";
    char *argv[] = {prog};
    const BenchArgs args = parse_bench_args(1, argv);
    EXPECT_FALSE(args.full);
    EXPECT_EQ(args.workloads, 24u);
    EXPECT_EQ(args.run.measure_insts, 800'000u);
}

TEST(Experiment, BenchArgsParsing)
{
    char prog[] = "bench";
    char f1[] = "--workloads";
    char v1[] = "7";
    char f2[] = "--insts";
    char v2[] = "12345";
    char f3[] = "--seed";
    char v3[] = "99";
    char *argv[] = {prog, f1, v1, f2, v2, f3, v3};
    const BenchArgs args = parse_bench_args(7, argv);
    EXPECT_EQ(args.workloads, 7u);
    EXPECT_EQ(args.run.measure_insts, 12'345u);
    EXPECT_EQ(args.seed, 99u);
}

TEST(Experiment, BenchArgsFullScales)
{
    char prog[] = "bench";
    char f1[] = "--full";
    char *argv[] = {prog, f1};
    const BenchArgs args = parse_bench_args(2, argv);
    EXPECT_TRUE(args.full);
    EXPECT_EQ(args.run.measure_insts, 4u * 800'000u);
    EXPECT_EQ(args.mixes, 300u);
}

TEST(Experiment, RunConfigScaled)
{
    RunConfig run;
    const RunConfig big = run.scaled(2.5);
    EXPECT_EQ(big.warmup_insts, 500'000u);
    EXPECT_EQ(big.measure_insts, 2'000'000u);
}

TEST(Experiment, SuiteAggregator)
{
    SuiteAggregator agg;
    agg.add("A", 1.1);
    agg.add("A", 1.1);
    agg.add("B", 0.9);
    EXPECT_NEAR(agg.suite_geomean("A"), 1.1, 1e-12);
    EXPECT_NEAR(agg.suite_geomean("B"), 0.9, 1e-12);
    EXPECT_DOUBLE_EQ(agg.suite_geomean("missing"), 1.0);
    EXPECT_EQ(agg.suites().size(), 2u);
    const double overall = agg.overall_geomean();
    EXPECT_GT(overall, 1.0);
    EXPECT_LT(overall, 1.1);
}

MachineConfig
berti_dripper()
{
    return make_config(L1dPrefetcherKind::kBerti,
                       scheme_dripper(L1dPrefetcherKind::kBerti));
}

/** Store key of bench-defined machine @p cfg's first job. */
std::uint64_t
machine_key(const std::string &label, const MachineConfig &cfg)
{
    return job_key(make_matrix({seen_workloads().front()},
                               {machine_column(label, cfg)},
                               RunConfig())[0]);
}

TEST(MatrixColumn, MachineKeyCoversTheMachine)
{
    const std::uint64_t key = machine_key("dripper", berti_dripper());
    // Two builds of one column share a key, which is not the key of
    // the registry cell with the same label.
    EXPECT_EQ(machine_key("dripper", berti_dripper()), key);
    EXPECT_NE(job_key(make_matrix({seen_workloads().front()}, {"dripper"},
                                  {"berti"}, RunConfig())[0]),
              key);

    const std::vector<std::function<void(MachineConfig &)>> mutations = {
        [](MachineConfig &c) { c.l2_prefetcher = L2PrefetcherKind::kSpp; },
        [](MachineConfig &c) { c.l1i.replacement = ReplacementKind::kSrrip; },
        [](MachineConfig &c) { c.l1d.replacement = ReplacementKind::kSrrip; },
        [](MachineConfig &c) { c.l2.replacement = ReplacementKind::kSrrip; },
        [](MachineConfig &c) { c.llc.replacement = ReplacementKind::kSrrip; },
        [](MachineConfig &c) { c.epoch_insts = 8192; },
        [](MachineConfig &c) { c.interval_insts = 2048; },
        [](MachineConfig &c) { c.vmem.large_page_fraction = 0.5; },
        [](MachineConfig &c) { c.scheme.name = "DRIPPER@T=0"; },
    };
    std::vector<std::uint64_t> keys = {key};
    for (const auto &mutate : mutations) {
        MachineConfig cfg = berti_dripper();
        mutate(cfg);
        keys.push_back(machine_key("dripper", cfg));
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
        for (std::size_t j = i + 1; j < keys.size(); ++j) {
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
        }
    }
}

TEST(MatrixColumn, MachinesRunOnlyWhereRunMatrixKnowsThem)
{
    RunConfig run;
    run.warmup_insts = 1000;
    run.measure_insts = 3000;
    const std::vector<WorkloadSpec> roster = {seen_workloads().front()};
    // Column 1 is column 2's machine, bench-defined.
    const std::vector<MatrixColumn> columns = {
        {"discard"}, machine_column("copy", berti_dripper()), {"dripper"}};
    const std::vector<JobSpec> jobs = make_matrix(roster, columns, run);

    const EngineReport report = run_matrix(jobs, BenchArgs(), columns);
    ASSERT_TRUE(report.all_completed());
    const RunMetrics *copy = cell_metrics(report, 1, 1, 0);
    const RunMetrics *registry = cell_metrics(report, 1, 2, 0);
    ASSERT_NE(copy, nullptr);
    ASSERT_NE(registry, nullptr);
    EXPECT_EQ(copy->instructions, registry->instructions);
    EXPECT_EQ(copy->cycles, registry->cycles);
    EXPECT_EQ(copy->l1d.misses, registry->l1d.misses);
    EXPECT_EQ(copy->pgc_issued, registry->pgc_issued);

    // Plain run_matrix resolves names only: the machine's job fails as
    // a bad config and drops out; the registry cells still run.
    const EngineReport plain = run_matrix(jobs, BenchArgs());
    EXPECT_EQ(plain.results[1].status, JobStatus::kFailed);
    EXPECT_EQ(plain.results[1].error, JobErrorCode::kConfigInvalid);
    EXPECT_EQ(cell_metrics(plain, 1, 1, 0), nullptr);
    ASSERT_NE(cell_metrics(plain, 1, 2, 0), nullptr);
    EXPECT_EQ(cell_metrics(plain, 1, 2, 0)->cycles, registry->cycles);
}

TEST(MatrixColumn, TraceCellsLoadThroughTheirFactory)
{
    const std::string dir = ::testing::TempDir();
    const std::string good = dir + "moka_matrix_cell.trc";
    const std::string bad = dir + "moka_matrix_cell_bad.trc";
    WorkloadPtr source = make_workload(seen_workloads().front());
    ASSERT_TRUE(record_trace(good, *source, 5000));
    std::FILE *f = std::fopen(bad.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a trace", f);
    std::fclose(f);

    RunConfig run;
    run.warmup_insts = 1000;
    run.measure_insts = 3000;
    std::vector<JobSpec> jobs =
        make_matrix({seen_workloads().front()}, {"discard"}, {"berti"}, run);
    jobs.resize(3, jobs[0]);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].id = i;
    }
    jobs[0].trace_path = good;
    jobs[1].trace_path = dir + "moka_matrix_cell_missing.trc";
    jobs[2].trace_path = bad;
    const EngineReport report = run_matrix(jobs, BenchArgs());
    ASSERT_EQ(report.results[0].status, JobStatus::kCompleted);
    EXPECT_EQ(report.results[0].output.row.suite, "trace");
    EXPECT_EQ(report.results[0].output.row.workload, open_trace(good)->name());
    EXPECT_EQ(report.results[1].error, JobErrorCode::kConfigInvalid);
    EXPECT_EQ(report.results[2].error, JobErrorCode::kTraceCorrupt);

    // Through a snapshot cache the warmup producer and the measuring
    // machine each get a trace workload, and the cell measures what
    // the cold one did.
    BenchArgs warm;
    warm.snapshot_dir = dir + "moka_matrix_cell_snaps";
    std::filesystem::remove_all(warm.snapshot_dir);
    jobs.resize(1);
    const EngineReport cached = run_matrix(jobs, warm);
    ASSERT_EQ(cached.results[0].status, JobStatus::kCompleted);
    EXPECT_EQ(cached.results[0].output.row.metrics.cycles,
              report.results[0].output.row.metrics.cycles);
    EXPECT_EQ(cached.results[0].output.row.metrics.l1d.misses,
              report.results[0].output.row.metrics.l1d.misses);
    std::remove(good.c_str());
    std::remove(bad.c_str());
}

}  // namespace
}  // namespace moka
