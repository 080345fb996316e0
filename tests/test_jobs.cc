/**
 * @file
 * Tests for the fault-tolerant job engine: failure isolation and
 * classification, retry with backoff, watchdog cancellation, resume
 * from the result store, fail-fast, and the determinism guarantee
 * that any worker count produces byte-identical output.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "filter/policies.h"
#include "sim/experiment.h"
#include "sim/jobs/engine.h"
#include "sim/jobs/faults.h"
#include "sim/jobs/store.h"
#include "sim/runner.h"
#include "telemetry/timeseries.h"
#include "trace/suites.h"

namespace moka {
namespace {

std::string
temp_dir(const char *tag)
{
    const std::string dir =
        std::string(::testing::TempDir()) + "moka_jobs_" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

/** N trivial jobs with dense ids. */
std::vector<JobSpec>
trivial_jobs(std::size_t n)
{
    std::vector<JobSpec> jobs(n);
    for (std::size_t i = 0; i < n; ++i) {
        jobs[i].id = i;
        jobs[i].workload.name = "job" + std::to_string(i);
    }
    return jobs;
}

/** A cheap deterministic body: the row identifies the job. */
JobOutput
echo_body(const JobSpec &spec, JobContext &)
{
    JobOutput out;
    out.row.workload = spec.workload.name;
    out.row.suite = "test";
    out.row.scheme = "s";
    out.row.prefetcher = "p";
    out.aux = {static_cast<double>(spec.id) + 0.5};
    return out;
}

std::string
all_csv(const EngineReport &report)
{
    std::string out;
    for (const JobResult &res : report.results) {
        if (res.status == JobStatus::kCompleted) {
            out += to_csv(res.output.row);
        }
        out += '\n';
    }
    return out;
}

// ---------------------------------------------------------------------------
// Isolation + classification
// ---------------------------------------------------------------------------

TEST(JobEngine, ThrowingJobIsIsolated)
{
    EngineConfig cfg;
    JobEngine engine(cfg);
    const auto report = engine.run(
        trivial_jobs(5), [](const JobSpec &spec, JobContext &ctx) {
            if (spec.id == 2) {
                throw JobError(JobErrorCode::kTraceCorrupt,
                               "bad bytes in job 2");
            }
            return echo_body(spec, ctx);
        });
    EXPECT_EQ(report.completed, 4u);
    EXPECT_EQ(report.failed, 1u);
    EXPECT_EQ(report.skipped, 0u);
    EXPECT_EQ(report.results[2].status, JobStatus::kFailed);
    EXPECT_EQ(report.results[2].error, JobErrorCode::kTraceCorrupt);
    EXPECT_EQ(report.results[2].error_message, "bad bytes in job 2");
    EXPECT_FALSE(report.all_completed());
    // The other four kept their results.
    EXPECT_EQ(report.results[3].status, JobStatus::kCompleted);
    EXPECT_EQ(report.results[3].output.row.workload, "job3");
}

TEST(JobEngine, ForeignExceptionsAreClassified)
{
    EngineConfig cfg;
    JobEngine engine(cfg);
    const auto report = engine.run(
        trivial_jobs(3), [](const JobSpec &spec, JobContext &ctx) {
            if (spec.id == 0) {
                throw std::runtime_error("vanilla failure");
            }
            if (spec.id == 1) {
                throw std::bad_alloc();
            }
            return echo_body(spec, ctx);
        });
    EXPECT_EQ(report.results[0].status, JobStatus::kFailed);
    EXPECT_EQ(report.results[0].error, JobErrorCode::kUnknown);
    EXPECT_EQ(report.results[1].status, JobStatus::kFailed);
    // bad_alloc is transient (kOom), so it was retried to exhaustion.
    EXPECT_EQ(report.results[1].error, JobErrorCode::kOom);
    EXPECT_EQ(report.results[1].attempts, kMaxAttempts);
    EXPECT_EQ(report.results[2].status, JobStatus::kCompleted);
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

TEST(JobEngine, TransientFailureRetriesThenSucceeds)
{
    JobEngine engine((EngineConfig()));
    const auto report = engine.run(
        trivial_jobs(1), [](const JobSpec &spec, JobContext &ctx) {
            if (ctx.attempt < kMaxAttempts) {
                throw JobError(JobErrorCode::kTimeout, "straggler");
            }
            return echo_body(spec, ctx);
        });
    EXPECT_EQ(report.results[0].status, JobStatus::kCompleted);
    EXPECT_EQ(report.results[0].attempts, kMaxAttempts);
}

TEST(JobEngine, PermanentFailureIsNotRetried)
{
    JobEngine engine((EngineConfig()));
    const auto report = engine.run(
        trivial_jobs(1), [](const JobSpec &, JobContext &) -> JobOutput {
            throw JobError(JobErrorCode::kConfigInvalid, "bad scheme");
        });
    EXPECT_EQ(report.results[0].status, JobStatus::kFailed);
    EXPECT_EQ(report.results[0].attempts, 1);
    EXPECT_EQ(report.results[0].error, JobErrorCode::kConfigInvalid);
}

TEST(JobErrors, TransiencyTaxonomy)
{
    EXPECT_TRUE(is_transient(JobErrorCode::kTimeout));
    EXPECT_TRUE(is_transient(JobErrorCode::kOom));
    EXPECT_FALSE(is_transient(JobErrorCode::kStepBudget));
    EXPECT_STREQ(to_string(JobErrorCode::kStepBudget), "step_budget");
    EXPECT_FALSE(is_transient(JobErrorCode::kTraceCorrupt));
    EXPECT_FALSE(is_transient(JobErrorCode::kConfigInvalid));
    EXPECT_FALSE(is_transient(JobErrorCode::kAuditFailure));
    EXPECT_FALSE(is_transient(JobErrorCode::kUnknown));
    // A lost lease must not be retried locally: the peer that stole
    // the job owns it now (see engine.cc).
    EXPECT_FALSE(is_transient(JobErrorCode::kLeaseLost));
}

// ---------------------------------------------------------------------------
// Retry backoff jitter
// ---------------------------------------------------------------------------

TEST(Backoff, JitterStaysInUpperHalfAndIsDeterministic)
{
    // 10, 20, 40, ... ms, capped at 500 from attempt 7 on.
    for (std::size_t id = 0; id < 8; ++id) {
        for (int attempt = 1; attempt <= 8; ++attempt) {
            const std::uint64_t shift =
                static_cast<std::uint64_t>(attempt - 1);
            const std::uint64_t full =
                std::min(kBackoffCapMs, kBackoffBaseMs << shift);
            const std::uint64_t d = backoff_delay_ms(0, id, attempt);
            EXPECT_GE(d, full / 2) << id << "/" << attempt;
            EXPECT_LE(d, full) << id << "/" << attempt;
            // Same (salt, id, attempt) always draws the same delay.
            EXPECT_EQ(d, backoff_delay_ms(0, id, attempt));
        }
    }
}

TEST(Backoff, SaltDecorrelatesShards)
{
    // Two shards retrying the same job on the same attempt must not
    // sleep in lockstep: different salts draw different delays for at
    // least some (id, attempt) pairs.
    constexpr std::uint64_t kOtherSalt = 0x9e3779b97f4a7c15ull;
    bool differs = false;
    for (std::size_t id = 0; id < 8 && !differs; ++id) {
        for (int attempt = 1; attempt <= 6 && !differs; ++attempt) {
            differs = backoff_delay_ms(0, id, attempt) !=
                      backoff_delay_ms(kOtherSalt, id, attempt);
        }
    }
    EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

TEST(JobEngine, WatchdogCancelsOverBudgetJob)
{
    JobEngine engine((EngineConfig()));
    auto jobs = trivial_jobs(1);
    jobs[0].watchdog_steps = 100;
    const auto report =
        engine.run(jobs, [](const JobSpec &spec, JobContext &ctx) {
            // A runaway loop, observed through the cooperative hook
            // exactly as Machine::run would report it.
            for (std::uint64_t steps = 1; steps <= 100000; ++steps) {
                ctx.hook->on_tick(steps);
            }
            return echo_body(spec, ctx);
        });
    EXPECT_EQ(report.results[0].status, JobStatus::kFailed);
    EXPECT_EQ(report.results[0].error, JobErrorCode::kStepBudget);
    // A run's step count is a function of its spec, so an exhausted
    // budget is permanent: no retry, although three attempts are allowed.
    EXPECT_EQ(report.results[0].attempts, 1);
}

TEST(Watchdog, FiresPastItsBudgetThroughMachineRun)
{
    // Machine::run calls a chain only at the steps its hooks ask
    // for; the sampler still fires every 100 steps and the watchdog
    // at budget + 1, as when every step reached them.
    std::vector<WorkloadPtr> w;
    w.push_back(make_workload(seen_workloads().front()));
    Machine machine(make_config(L1dPrefetcherKind::kBerti, scheme_discard()),
                    std::move(w));
    std::vector<std::uint64_t> sampled;
    EpochSampler sampler(
        100, [&](std::uint64_t steps) { sampled.push_back(steps); });
    Watchdog watchdog(1234, 0);
    TickHookChain chain;
    chain.add(&sampler);
    chain.add(&watchdog);
    try {
        machine.run(100'000, chain.as_hook());
        ADD_FAILURE() << "the watchdog did not fire";
    } catch (const JobError &e) {
        EXPECT_EQ(e.code(), JobErrorCode::kStepBudget);
        EXPECT_NE(std::string(e.what()).find("at tick 1235"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(machine.steps(), 1235u);
    std::vector<std::uint64_t> expected;
    for (std::uint64_t s = 100; s <= 1200; s += 100) {
        expected.push_back(s);
    }
    EXPECT_EQ(sampled, expected);
}

TEST(JobEngine, StalledWorkerTripsWallDeadline)
{
    EngineConfig cfg;
    cfg.watchdog_wall_ms = 5;
    cfg.faults.enabled = true;
    cfg.faults.seed = 3;
    cfg.faults.stall_rate = 1.0;  // every attempt stalls
    cfg.faults.stall_ms = 50;
    JobEngine engine(cfg);
    const auto report = engine.run(
        trivial_jobs(1), [](const JobSpec &spec, JobContext &ctx) {
            for (std::uint64_t steps = 1; steps <= 8192; ++steps) {
                ctx.hook->on_tick(steps);
            }
            return echo_body(spec, ctx);
        });
    EXPECT_EQ(report.results[0].status, JobStatus::kFailed);
    EXPECT_EQ(report.results[0].error, JobErrorCode::kTimeout);
    // A timeout is transient: every attempt stalled and timed out.
    EXPECT_EQ(report.results[0].attempts, kMaxAttempts);
}

// ---------------------------------------------------------------------------
// Determinism across worker counts (real simulations)
// ---------------------------------------------------------------------------

TEST(JobEngine, WorkerCountDoesNotChangeOutput)
{
    RunConfig run;
    run.warmup_insts = 500;
    run.measure_insts = 2000;
    const auto roster = sample(seen_workloads(), 3);
    const auto jobs =
        make_matrix(roster, {"discard", "dripper"}, {"berti"}, run);

    std::string reference;
    for (const std::size_t workers : {1u, 4u, 8u}) {
        EngineConfig cfg;
        cfg.workers = workers;
        JobEngine engine(cfg);
        const std::string csv = all_csv(engine.run(jobs, run_sim_job));
        if (reference.empty()) {
            reference = csv;
        } else {
            EXPECT_EQ(csv, reference) << "workers=" << workers;
        }
    }
    EXPECT_NE(reference.find("discard,berti"), std::string::npos);
}

TEST(JobEngine, InjectedFaultsAreScheduleIndependent)
{
    EngineConfig cfg;
    cfg.faults.enabled = true;
    cfg.faults.seed = 11;
    cfg.faults.throw_rate = 0.5;
    cfg.faults.transient_rate = 0.0;  // every injected throw permanent

    std::vector<JobStatus> reference;
    for (const std::size_t workers : {1u, 4u, 8u}) {
        cfg.workers = workers;
        JobEngine engine(cfg);
        const auto report = engine.run(
            trivial_jobs(16), [](const JobSpec &spec, JobContext &ctx) {
                for (std::uint64_t steps = 1; steps <= 4096; ++steps) {
                    ctx.hook->on_tick(steps);
                }
                return echo_body(spec, ctx);
            });
        std::vector<JobStatus> statuses;
        for (const JobResult &res : report.results) {
            statuses.push_back(res.status);
        }
        if (reference.empty()) {
            reference = statuses;
            // The plan must actually produce both outcomes.
            EXPECT_GT(report.completed, 0u);
            EXPECT_GT(report.failed, 0u);
        } else {
            EXPECT_EQ(statuses, reference) << "workers=" << workers;
        }
    }
}

TEST(FaultInjector, DecisionsAreDeterministic)
{
    FaultPlan plan;
    plan.enabled = true;
    plan.seed = 42;
    plan.throw_rate = 0.5;
    plan.stall_rate = 0.25;
    const FaultInjector a(plan);
    const FaultInjector b(plan);
    bool saw_fault = false;
    for (std::size_t id = 0; id < 64; ++id) {
        for (int attempt = 1; attempt <= 3; ++attempt) {
            const auto da = a.decide(id, attempt);
            const auto db = b.decide(id, attempt);
            EXPECT_EQ(static_cast<int>(da.kind),
                      static_cast<int>(db.kind));
            EXPECT_EQ(da.at_tick, db.at_tick);
            EXPECT_EQ(da.transient, db.transient);
            saw_fault |= da.kind != FaultInjector::Decision::Kind::kNone;
        }
    }
    EXPECT_TRUE(saw_fault);
    // Disabled plan never faults.
    plan.enabled = false;
    const FaultInjector off(plan);
    for (std::size_t id = 0; id < 16; ++id) {
        EXPECT_EQ(static_cast<int>(off.decide(id, 1).kind),
                  static_cast<int>(FaultInjector::Decision::Kind::kNone));
    }
}

// ---------------------------------------------------------------------------
// Resume from the result store
// ---------------------------------------------------------------------------

TEST(JobEngine, ResumeReproducesUninterruptedOutput)
{
    const std::string dir = temp_dir("resume");
    const auto jobs = trivial_jobs(8);
    const std::string reference =
        all_csv(JobEngine(EngineConfig()).run(jobs, echo_body));

    // Simulate a crash after 3 jobs: every later job fails, and a
    // failed job leaves nothing in the store.
    ResultStore store(dir, /*lease_ttl_ms=*/5000);
    EngineConfig cfg;
    cfg.store = &store;
    int runs = 0;
    const auto cut = JobEngine(cfg).run(
        jobs, [&](const JobSpec &spec, JobContext &ctx) {
            if (++runs > 3) {
                throw JobError(JobErrorCode::kUnknown, "crashed");
            }
            return echo_body(spec, ctx);
        });
    EXPECT_EQ(cut.completed, 3u);
    EXPECT_EQ(store.stats().published, 3u);

    int fresh_runs = 0;
    const auto resumed = JobEngine(cfg).run(
        jobs, [&](const JobSpec &spec, JobContext &ctx) {
            ++fresh_runs;
            return echo_body(spec, ctx);
        });
    EXPECT_EQ(all_csv(resumed), reference);
    EXPECT_EQ(fresh_runs, 5);  // 3 of 8 read from the store
    EXPECT_EQ(resumed.stored, 3u);
    EXPECT_EQ(resumed.ran(), 5u);
    EXPECT_EQ(resumed.completed, 8u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_TRUE(resumed.results[i].stored);
    }
    // aux survives the store round trip.
    ASSERT_EQ(resumed.results[0].output.aux.size(), 1u);
    EXPECT_EQ(resumed.results[0].output.aux[0], 0.5);

    // The store is now complete: nothing runs again.
    const auto second = JobEngine(cfg).run(
        jobs, [](const JobSpec &, JobContext &) -> JobOutput {
            throw JobError(JobErrorCode::kUnknown,
                           "nothing should re-run");
        });
    EXPECT_EQ(all_csv(second), reference);
    EXPECT_EQ(second.stored, 8u);
    EXPECT_EQ(second.ran(), 0u);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Process-level fault injection
// ---------------------------------------------------------------------------

TEST(ProcessFaults, DecisionsAreDeterministicAndGated)
{
    ProcessFaultPlan plan;
    plan.enabled = true;
    plan.seed = 5;
    plan.kill_rate = 0.5;
    ProcessFaultInjector a(plan);
    ProcessFaultInjector b(plan);
    bool saw_kill = false;
    for (std::size_t job = 0; job < 64; ++job) {
        for (const ShardFaultPoint point :
             {ShardFaultPoint::kClaim, ShardFaultPoint::kRun,
              ShardFaultPoint::kCommit}) {
            const bool ka = a.should_kill(point, job);
            EXPECT_EQ(ka, b.should_kill(point, job));
            saw_kill |= ka;
        }
    }
    EXPECT_TRUE(saw_kill);

    plan.enabled = false;
    ProcessFaultInjector off(plan);
    for (std::size_t job = 0; job < 32; ++job) {
        EXPECT_FALSE(off.should_kill(ShardFaultPoint::kClaim, job));
    }
}

using ProcessFaultsDeathTest = ::testing::Test;

TEST(ProcessFaultsDeathTest, MaybeKillDeliversRealSigkill)
{
    // The honest crash: no exit handlers, no destructors — the
    // store's lease recovery is built against exactly this signal.
    ProcessFaultPlan plan;
    plan.enabled = true;
    plan.kill_rate = 1.0;
    EXPECT_EXIT(
        {
            ProcessFaultInjector injector(plan);
            injector.maybe_kill(ShardFaultPoint::kCommit, 0);
            std::_Exit(0);  // unreachable when the kill fires
        },
        ::testing::KilledBySignal(SIGKILL), "");
}

// ---------------------------------------------------------------------------
// Dispatch order
// ---------------------------------------------------------------------------

TEST(JobEngine, EqualCostsPreserveIdOrder)
{
    std::vector<std::size_t> execution_order;
    EngineConfig cfg;
    JobEngine(cfg).run(trivial_jobs(4),
                       [&](const JobSpec &spec, JobContext &ctx) {
                           execution_order.push_back(spec.id);
                           return echo_body(spec, ctx);
                       });
    // One worker claims the jobs in id order.
    const std::vector<std::size_t> expected = {0, 1, 2, 3};
    EXPECT_EQ(execution_order, expected);
}

// ---------------------------------------------------------------------------
// Fail-fast
// ---------------------------------------------------------------------------

TEST(JobEngine, FailFastSkipsRemainingJobs)
{
    EngineConfig cfg;
    cfg.fail_fast = true;
    JobEngine engine(cfg);  // workers=1: deterministic skip count
    const auto report = engine.run(
        trivial_jobs(6), [](const JobSpec &spec, JobContext &ctx) {
            if (spec.id == 1) {
                throw JobError(JobErrorCode::kAuditFailure,
                               "invariant violated");
            }
            return echo_body(spec, ctx);
        });
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(report.failed, 1u);
    EXPECT_EQ(report.skipped, 4u);
    for (std::size_t i = 2; i < 6; ++i) {
        EXPECT_EQ(report.results[i].status, JobStatus::kSkipped);
    }
    const std::string summary = report.summary();
    EXPECT_NE(summary.find("audit_failure"), std::string::npos);
    EXPECT_NE(summary.find("skipped"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CLI validation
// ---------------------------------------------------------------------------

using JobEngineDeathTest = ::testing::Test;

TEST(JobEngineDeathTest, MalformedNumericFlagIsUsageError)
{
    const char *argv1[] = {"bench", "--insts", "banana"};
    EXPECT_EXIT(parse_bench_args(3, const_cast<char **>(argv1)),
                ::testing::ExitedWithCode(2), "non-negative integer");
    const char *argv2[] = {"bench", "--jobs"};
    EXPECT_EXIT(parse_bench_args(2, const_cast<char **>(argv2)),
                ::testing::ExitedWithCode(2), "requires a value");
    const char *argv3[] = {"bench", "--inject-faults", "lots"};
    EXPECT_EXIT(parse_bench_args(3, const_cast<char **>(argv3)),
                ::testing::ExitedWithCode(2), "requires a number");
    const char *argv4[] = {"bench", "--insts", "123abc"};
    EXPECT_EXIT(parse_bench_args(3, const_cast<char **>(argv4)),
                ::testing::ExitedWithCode(2), "non-negative integer");
}

TEST(JobEngine, SchemeAndPrefetcherNamesAreValidated)
{
    EXPECT_THROW(scheme_by_name("not-a-scheme",
                                L1dPrefetcherKind::kBerti),
                 JobError);
    try {
        scheme_by_name("not-a-scheme", L1dPrefetcherKind::kBerti);
    } catch (const JobError &e) {
        EXPECT_EQ(e.code(), JobErrorCode::kConfigInvalid);
    }
    for (const std::string &name : known_scheme_names()) {
        EXPECT_NO_THROW(scheme_by_name(name, L1dPrefetcherKind::kBerti));
    }
    // An invalid prefetcher fails the job as kConfigInvalid.
    auto jobs = trivial_jobs(1);
    jobs[0].workload = seen_workloads().front();
    jobs[0].scheme = "discard";
    jobs[0].prefetcher = "psychic";
    jobs[0].run.warmup_insts = 100;
    jobs[0].run.measure_insts = 100;
    JobEngine engine((EngineConfig()));
    const auto report = engine.run(jobs, run_sim_job);
    EXPECT_EQ(report.results[0].status, JobStatus::kFailed);
    EXPECT_EQ(report.results[0].error, JobErrorCode::kConfigInvalid);
}

}  // namespace
}  // namespace moka
