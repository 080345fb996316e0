/**
 * @file
 * Tests for the result store and the file layer it shares with the
 * snapshot cache: lease claim/expiry/steal semantics, job_key
 * coverage, and the store-mode engine loop — no stale results across
 * matrices or budgets, concurrent engines on one directory, reruns
 * over a finished directory, failed jobs retried alone, bad records
 * re-run, publishes that hit the file-size limit, and directories
 * that refuse leases.
 *
 * Timing: lease TTLs here are either huge (5 s — never expires within
 * a test) or tiny (60 ms) with sleeps several times longer, so the
 * assertions hold on arbitrarily slow CI machines.
 */
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/hashing.h"
#include "sim/experiment.h"
#include "sim/jobs/engine.h"
#include "sim/jobs/store.h"
#include "snapshot/cache.h"
#include "snapshot/format.h"
#include "snapshot/store_file.h"
#include "trace/suites.h"

namespace moka {
namespace {

namespace fs = std::filesystem;

std::string
temp_dir(const char *tag)
{
    const std::string dir =
        std::string(::testing::TempDir()) + "moka_store_" + tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

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

/** A cheap deterministic body that ticks like a short machine run. */
JobOutput
echo_body(const JobSpec &spec, JobContext &ctx)
{
    for (std::uint64_t steps = 1; steps <= 4096; ++steps) {
        ctx.hook->on_tick(steps);
    }
    JobOutput out;
    out.row.workload = spec.workload.name;
    out.row.suite = "test";
    out.row.scheme = "s";
    out.row.prefetcher = "p";
    out.row.metrics.instructions = 100 + spec.id;
    out.row.metrics.cycles = 200;
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

void
sleep_ms(std::uint64_t ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/** A two-workload fig09-class matrix with tiny budgets. */
std::vector<JobSpec>
sim_matrix(const std::vector<std::string> &schemes,
           InstCount measure_insts = 3000)
{
    RunConfig run;
    run.warmup_insts = 1000;
    run.measure_insts = measure_insts;
    return make_matrix(sample(seen_workloads(), 2), schemes, {"berti"},
                       run);
}

// ---------------------------------------------------------------------------
// Lease protocol
// ---------------------------------------------------------------------------

TEST(Lease, ExclusiveClaimAndRelease)
{
    const std::string dir = temp_dir("claim");
    const std::uint64_t key = job_key(trivial_jobs(1)[0]);
    LeaseDir a(dir, "job", 5000);
    LeaseDir b(dir, "job", 5000);

    EXPECT_EQ(a.try_claim(key), ClaimOutcome::kAcquired);
    // A live lease is busy for everyone else.
    EXPECT_EQ(b.try_claim(key), ClaimOutcome::kBusy);
    // Heartbeats succeed only for the owner.
    EXPECT_TRUE(a.refresh(key));
    EXPECT_FALSE(b.refresh(key));
    // Releasing is idempotent and only drops our own lease.
    b.release(key);
    EXPECT_TRUE(a.refresh(key));
    a.release(key);
    EXPECT_EQ(b.try_claim(key), ClaimOutcome::kAcquired);
    fs::remove_all(dir);
}

TEST(Lease, ExpiredLeaseIsStolenAndOldOwnerCannotCommit)
{
    const std::string dir = temp_dir("steal");
    const std::uint64_t key = job_key(trivial_jobs(1)[0]);
    LeaseDir dead(dir, "job", /*ttl_ms=*/60);
    LeaseDir thief(dir, "job", /*ttl_ms=*/60);
    ASSERT_EQ(dead.try_claim(key), ClaimOutcome::kAcquired);
    sleep_ms(400);  // several TTLs: the lease is unambiguously stale
    EXPECT_EQ(thief.try_claim(key), ClaimOutcome::kStolen);

    // The steal-vs-double-execute exclusion: the original owner's
    // next heartbeat fails (the lease file carries the thief's nonce
    // now), so a wedged-but-alive owner aborts instead of publishing.
    EXPECT_FALSE(dead.refresh(key));
    EXPECT_TRUE(thief.refresh(key));
    // And releasing from the old owner must not drop the thief's lease.
    dead.release(key);
    EXPECT_TRUE(thief.refresh(key));
    fs::remove_all(dir);
}

TEST(Lease, RefreshExtendsExpiry)
{
    const std::string dir = temp_dir("heartbeat");
    const std::uint64_t key = job_key(trivial_jobs(1)[0]);
    LeaseDir owner(dir, "job", /*ttl_ms=*/300);
    LeaseDir thief(dir, "job", /*ttl_ms=*/300);
    ASSERT_EQ(owner.try_claim(key), ClaimOutcome::kAcquired);
    // Heartbeat for ~3 TTLs; the lease must never become stealable.
    for (int i = 0; i < 9; ++i) {
        sleep_ms(100);
        ASSERT_TRUE(owner.refresh(key));
        ASSERT_EQ(thief.try_claim(key), ClaimOutcome::kBusy) << i;
    }
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The shared publish under a file-size limit (both stores)
// ---------------------------------------------------------------------------

TEST(StoreFile, PublishOverFileSizeLimitLeavesNoFile)
{
    const std::string dir = temp_dir("fsize");
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        const rlim_t limit = 1024;
        const rlimit lim{limit, limit};
        std::signal(SIGXFSZ, SIG_IGN);
        if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) {
            std::_Exit(100);
        }
        int failures = 0;
        // The helper itself: nothing at the path, no temp left over.
        const std::string big(4 * limit, 'x');
        if (publish_file(dir + "/big", big) || !fs::is_empty(dir)) {
            failures |= 1;
        }
        // The result store: the job completes, nothing is stored.
        {
            ResultStore store(dir + "/results", 5000);
            EngineConfig cfg;
            cfg.store = &store;
            const EngineReport report = JobEngine(cfg).run(
                trivial_jobs(1), [](const JobSpec &spec, JobContext &ctx) {
                    JobOutput out = echo_body(spec, ctx);
                    out.aux.assign(4 * limit / sizeof(double), 1.0);
                    return out;
                });
            if (report.completed != 1 || store.stats().published != 0 ||
                fs::exists(store.path_for(job_key(trivial_jobs(1)[0])))) {
                failures |= 2;
            }
        }
        // The snapshot cache: the blob is served, nothing is saved.
        {
            SnapshotWriter w(7);
            w.begin_section("payload");
            w.put_bytes(big.data(), big.size());
            const std::string bytes = w.finish();
            SnapshotCache cache(dir + "/snaps");
            SnapshotCache::FetchOutcome outcome;
            const SnapshotBlob blob =
                cache.fetch(7, [&] { return bytes; }, &outcome);
            if (blob == nullptr || blob->bytes() != bytes ||
                outcome.saved || fs::exists(cache.path_for(7))) {
                failures |= 4;
            }
        }
        std::_Exit(failures);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    fs::remove_all(dir);
}

TEST(StoreFile, DirectoryUnderRegularFileNeverBlocks)
{
    // Nobody can create a lease under a regular file (ENOTDIR, root
    // included), so waiting for the key's owner would never end. The
    // claim says so, and the snapshot cache warms up cold instead.
    const std::string dir = temp_dir("notdir");
    {
        std::ofstream os(dir + "/file");
        os << "x";
    }
    const std::string bad = dir + "/file/store";
    EXPECT_EQ(LeaseDir(bad, "snap", 5000).try_claim(7),
              ClaimOutcome::kUnavailable);

    SnapshotWriter w(7);
    w.begin_section("payload");
    w.put_bytes("x", 1);
    const std::string bytes = w.finish();
    const auto t0 = std::chrono::steady_clock::now();
    SnapshotCache cache(bad);
    SnapshotCache::FetchOutcome outcome;
    const SnapshotBlob blob =
        cache.fetch(7, [&] { return bytes; }, &outcome);
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::milliseconds(SnapshotCache::kClaimTtlMs / 10));
    ASSERT_NE(blob, nullptr);
    EXPECT_EQ(blob->bytes(), bytes);
    EXPECT_FALSE(outcome.hit);
    EXPECT_FALSE(outcome.saved);
    EXPECT_EQ(cache.stats().misses, 1u);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Key coverage
// ---------------------------------------------------------------------------

TEST(JobKey, MovesOnEveryResultField)
{
    JobSpec base;
    base.workload = seen_workloads().front();
    base.scheme = "discard";
    base.prefetcher = "berti";

    std::vector<JobSpec> variants;
    auto vary = [&](auto &&mutate) {
        JobSpec v = base;
        mutate(v);
        variants.push_back(v);
    };
    vary([](JobSpec &s) { s.workload.name += "x"; });
    vary([](JobSpec &s) { s.workload.suite += "x"; });
    vary([](JobSpec &s) {
        s.workload.family = s.workload.family == Family::kHash
                                ? Family::kStream
                                : Family::kHash;
    });
    vary([](JobSpec &s) { ++s.workload.variant; });
    vary([](JobSpec &s) { ++s.workload.seed; });
    vary([](JobSpec &s) {
        s.workload.memory_intensive = !s.workload.memory_intensive;
    });
    vary([](JobSpec &s) { s.trace_path = "w.trc"; });
    vary([](JobSpec &s) { s.scheme = "dripper"; });
    vary([](JobSpec &s) { s.prefetcher = "ipcp"; });
    vary([](JobSpec &s) { ++s.run.warmup_insts; });
    vary([](JobSpec &s) { ++s.run.measure_insts; });
    vary([](JobSpec &s) { s.large_page_fraction = 0.5; });

    std::vector<std::uint64_t> keys = {job_key(base)};
    for (const JobSpec &v : variants) {
        keys.push_back(job_key(v));
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
        for (std::size_t j = i + 1; j < keys.size(); ++j) {
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
        }
    }
}

TEST(JobKey, IgnoresSchedulingFields)
{
    JobSpec base;
    base.workload = seen_workloads().front();
    base.scheme = "discard";
    base.prefetcher = "berti";
    JobSpec moved = base;
    moved.id = 41;
    moved.watchdog_steps = 12345;
    moved.estimated_cost = 99.0;
    EXPECT_EQ(job_key(base), job_key(moved));
}

// ---------------------------------------------------------------------------
// Store-mode sweeps
// ---------------------------------------------------------------------------

TEST(ResultStore, RecordRoundTripsExactly)
{
    const std::string dir = temp_dir("roundtrip");
    ResultStore store(dir, 5000);
    JobResult res;
    res.status = JobStatus::kCompleted;
    res.attempts = 2;
    res.output.row.workload = "w1,\"quoted\"\nsecond line";
    res.output.row.suite = "";
    res.output.row.scheme = "dripper";
    res.output.row.prefetcher = "berti";
    res.output.row.metrics.instructions = 123456789;
    res.output.row.metrics.llc.misses = 42;
    res.output.row.metrics.branch_mispredicts = 7;
    res.output.aux = {1.0 / 3.0, -0.0, 123456789.123456789};
    ASSERT_TRUE(store.publish(99, res));

    JobResult back;
    back.id = 5;
    back.label = "label";
    ASSERT_TRUE(store.load(99, back));
    EXPECT_EQ(back.id, 5u);
    EXPECT_EQ(back.label, "label");
    EXPECT_EQ(back.status, JobStatus::kCompleted);
    EXPECT_TRUE(back.stored);
    EXPECT_EQ(back.attempts, 2);
    EXPECT_EQ(to_csv(back.output.row), to_csv(res.output.row));
    EXPECT_EQ(back.output.row.workload, res.output.row.workload);
    ASSERT_EQ(back.output.aux.size(), res.output.aux.size());
    for (std::size_t i = 0; i < res.output.aux.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.output.aux[i]),
                  std::bit_cast<std::uint64_t>(res.output.aux[i]));
    }
    // Another key has no record.
    EXPECT_FALSE(store.load(98, back));
    EXPECT_EQ(store.stats().found, 1u);
    fs::remove_all(dir);
}

TEST(ResultStore, OtherMatricesAndBudgetsAreNeverServed)
{
    const std::string dir = temp_dir("reuse");
    BenchArgs args;
    args.shard_dir = dir;
    std::atomic<int> runs{0};
    const JobFn counted = [&](const JobSpec &spec, JobContext &ctx) {
        ++runs;
        return run_sim_job(spec, ctx);
    };

    const auto first = sim_matrix({"discard", "permit"});
    EXPECT_TRUE(run_engine(first, args, counted).all_completed());
    EXPECT_EQ(runs.load(), 4);

    // Same directory, another matrix: only the dripper cells run, and
    // the output equals a fresh run's (no permit row in sight).
    runs = 0;
    const auto second = sim_matrix({"discard", "dripper"});
    const EngineReport reused = run_engine(second, args, counted);
    EXPECT_EQ(runs.load(), 2);
    EXPECT_EQ(reused.stored, 2u);
    const EngineReport fresh = run_matrix(second, BenchArgs());
    EXPECT_EQ(all_csv(reused), all_csv(fresh));
    EXPECT_EQ(all_csv(reused).find("permit"), std::string::npos);

    // Another measure budget reuses nothing.
    runs = 0;
    const EngineReport longer = run_engine(
        sim_matrix({"discard", "dripper"}, 4000), args, counted);
    EXPECT_EQ(runs.load(), 4);
    EXPECT_EQ(longer.stored, 0u);
    fs::remove_all(dir);
}

TEST(ResultStore, ConcurrentEnginesMatchSerial)
{
    const std::string dir = temp_dir("farm");
    const auto jobs = trivial_jobs(12);
    const std::string reference =
        all_csv(JobEngine(EngineConfig()).run(jobs, echo_body));

    std::atomic<int> runs{0};
    const JobFn slow = [&](const JobSpec &spec, JobContext &ctx) {
        ++runs;
        sleep_ms(5);  // let the two engines interleave
        return echo_body(spec, ctx);
    };
    EngineReport ra, rb;
    auto engine_run = [&](EngineReport *out) {
        ResultStore store(dir, /*lease_ttl_ms=*/5000);
        EngineConfig cfg;
        cfg.workers = 2;
        cfg.store = &store;
        *out = JobEngine(cfg).run(jobs, slow);
    };
    std::thread ta(engine_run, &ra);
    std::thread tb(engine_run, &rb);
    ta.join();
    tb.join();

    // Leases never expired, so every job ran exactly once somewhere,
    // and each engine returns the whole matrix.
    EXPECT_EQ(runs.load(), 12);
    EXPECT_EQ(ra.ran() + rb.ran(), 12u);
    EXPECT_EQ(all_csv(ra), reference);
    EXPECT_EQ(all_csv(rb), reference);
    fs::remove_all(dir);
}

TEST(ResultStore, FinishedDirectoryRunsNothing)
{
    const std::string dir = temp_dir("finished");
    BenchArgs args;
    args.shard_dir = dir;
    const auto jobs = sim_matrix({"discard", "dripper"});
    const EngineReport first = run_matrix(jobs, args);
    ASSERT_TRUE(first.all_completed());
    EXPECT_EQ(first.ran(), jobs.size());

    const EngineReport again = run_engine(
        jobs, args, [](const JobSpec &, JobContext &) -> JobOutput {
            throw JobError(JobErrorCode::kUnknown, "nothing should run");
        });
    EXPECT_EQ(again.ran(), 0u);
    EXPECT_EQ(again.stored, jobs.size());
    EXPECT_EQ(all_csv(again), all_csv(first));
    fs::remove_all(dir);
}

TEST(ResultStore, FailedJobsLeaveNoFileAndRerunAlone)
{
    const std::string dir = temp_dir("faults");
    const auto jobs = trivial_jobs(16);
    BenchArgs faulty;
    faulty.shard_dir = dir;
    faulty.fault_rate = 0.6;
    faulty.fault_seed = 3;
    const EngineReport first = run_engine(jobs, faulty, echo_body);
    ASSERT_GT(first.failed, 0u);
    ASSERT_GT(first.completed, 0u);

    ResultStore store(dir, 5000);
    std::vector<std::size_t> failed;
    for (const JobResult &res : first.results) {
        const bool stored = fs::exists(store.path_for(job_key(jobs[res.id])));
        EXPECT_EQ(stored, res.status == JobStatus::kCompleted) << res.id;
        if (res.status != JobStatus::kCompleted) {
            failed.push_back(res.id);
        }
    }

    BenchArgs clean;
    clean.shard_dir = dir;
    std::vector<std::size_t> rerun;
    const EngineReport second =
        run_engine(jobs, clean, [&](const JobSpec &spec, JobContext &ctx) {
            rerun.push_back(spec.id);  // one worker: no race
            return echo_body(spec, ctx);
        });
    EXPECT_EQ(rerun, failed);
    EXPECT_EQ(all_csv(second),
              all_csv(JobEngine(EngineConfig()).run(jobs, echo_body)));
    fs::remove_all(dir);
}

TEST(ResultStore, BadRecordsAreRerun)
{
    const std::string dir = temp_dir("bad");
    const auto jobs = trivial_jobs(4);
    ResultStore store(dir, 5000);
    EngineConfig cfg;
    cfg.store = &store;
    const std::string reference = all_csv(JobEngine(cfg).run(jobs, echo_body));
    const auto path = [&](std::size_t i) {
        return store.path_for(job_key(jobs[i]));
    };

    // Job 0: garbage. Job 1: job 3's record under job 1's name, so
    // the header key differs from the name. Job 2: an older format.
    {
        std::ofstream os(path(0), std::ios::binary | std::ios::trunc);
        os << "definitely not a record";
    }
    fs::copy_file(path(3), path(1), fs::copy_options::overwrite_existing);
    {
        std::fstream io(path(2), std::ios::binary | std::ios::in |
                                     std::ios::out);
        io.seekp(sizeof(kSnapshotMagic));
        const char old_version[4] = {2, 0, 0, 0};
        io.write(old_version, sizeof(old_version));
    }

    std::vector<std::size_t> rerun;
    ResultStore again(dir, 5000);
    cfg.store = &again;
    const EngineReport report =
        JobEngine(cfg).run(jobs, [&](const JobSpec &spec, JobContext &ctx) {
            rerun.push_back(spec.id);
            return echo_body(spec, ctx);
        });
    const std::vector<std::size_t> expected = {0, 1, 2};
    EXPECT_EQ(rerun, expected);
    EXPECT_EQ(again.stats().invalid, 3u);
    EXPECT_EQ(all_csv(report), reference);
    fs::remove_all(dir);
}

TEST(ResultStore, LengthsPastTheSectionAreInvalid)
{
    // One section "result" after the 24-byte container header: name
    // length (u32), "result", payload length (u64), payload sum
    // (u64), then the payload: attempts (u32), the workload string
    // (u64 length, bytes), ... and last the aux list (u64 length,
    // one f64 each).
    constexpr std::size_t kPayloadAt = 24 + 4 + 6 + 8 + 8;
    JobResult res;
    res.status = JobStatus::kCompleted;
    res.output.row.workload = "w";
    res.output.aux = {1.0};
    const std::string dir = temp_dir("lengths");
    for (const bool aux : {false, true}) {
        SCOPED_TRACE(aux ? "aux" : "string");
        ResultStore store(dir, 5000);
        ASSERT_TRUE(store.publish(7, res));
        std::string bytes;
        {
            std::ifstream is(store.path_for(7), std::ios::binary);
            bytes.assign(std::istreambuf_iterator<char>(is), {});
        }
        const std::size_t at = aux ? bytes.size() - 16 : kPayloadAt + 4;
        const std::uint64_t huge = std::uint64_t{1} << 62;
        std::memcpy(bytes.data() + at, &huge, sizeof(huge));
        const std::uint64_t sum = checksum64(bytes.data() + kPayloadAt,
                                             bytes.size() - kPayloadAt);
        std::memcpy(bytes.data() + kPayloadAt - 8, &sum, sizeof(sum));
        {
            std::ofstream os(store.path_for(7),
                             std::ios::binary | std::ios::trunc);
            os << bytes;
        }
        ResultStore again(dir, 5000);
        JobResult back;
        EXPECT_FALSE(again.load(7, back));
        EXPECT_EQ(again.stats().invalid, 1u);
    }
    fs::remove_all(dir);
}

TEST(ResultStore, UnusableDirectoryNeverHangsTheEngine)
{
    const std::string dir = temp_dir("unusable");
    {
        std::ofstream os(dir + "/file");
        os << "x";
    }
    // A --shard-dir that cannot be created is a config error, at once.
    BenchArgs args;
    args.shard_dir = dir + "/file/store";
    try {
        (void)run_engine(trivial_jobs(2), args, echo_body);
        ADD_FAILURE() << "a bad shard dir was accepted";
    } catch (const JobError &e) {
        EXPECT_EQ(e.code(), JobErrorCode::kConfigInvalid);
    }

    // A store whose directory turns into a file under it refuses
    // every lease: its jobs run unleased, and nothing is stored.
    const std::string gone = dir + "/gone";
    ResultStore store(gone, 5000);
    fs::remove(gone);
    {
        std::ofstream os(gone);
        os << "x";
    }
    EngineConfig cfg;
    cfg.workers = 2;
    cfg.store = &store;
    const auto jobs = trivial_jobs(4);
    const EngineReport report = JobEngine(cfg).run(jobs, echo_body);
    EXPECT_EQ(report.completed, jobs.size());
    EXPECT_EQ(report.ran(), jobs.size());
    EXPECT_EQ(store.stats().published, 0u);
    EXPECT_EQ(all_csv(report),
              all_csv(JobEngine(EngineConfig()).run(jobs, echo_body)));
    fs::remove_all(dir);
}

}  // namespace
}  // namespace moka
