/**
 * @file
 * Fault-tolerant parallel job engine: executes the (workload, scheme,
 * prefetcher) matrix on a worker-thread pool with the posture of a
 * fleet scheduler — failures are expected, isolated, classified and
 * retried instead of fatal.
 *
 *  - isolation: a throwing job body marks that job failed with a
 *    JobErrorCode instead of killing the sweep;
 *  - watchdog: a cooperative step-budget + wall-clock heartbeat
 *    threaded through Machine::run cancels hung or stalled runs;
 *  - retry: transient failures (timeout, OOM) retry with capped
 *    exponential backoff before the engine degrades gracefully to a
 *    partial-results report;
 *  - store: with a result store (store.h), results found there are
 *    reported without running, the rest are claimed under a lease,
 *    run and published, so one loop covers a fresh sweep, a resumed
 *    one and one process of a multi-process farm;
 *  - determinism: results are emitted in ascending job id, and every
 *    per-job decision (including injected faults) is a pure function
 *    of the job id, so an N-worker run is byte-identical to a serial
 *    one.
 */
#ifndef MOKASIM_SIM_JOBS_ENGINE_H
#define MOKASIM_SIM_JOBS_ENGINE_H

#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "sim/jobs/faults.h"
#include "sim/jobs/job.h"
#include "sim/machine.h"

namespace moka {

class TelemetrySession;
class SnapshotCache;
class ResultStore;

/** Engine-wide policy knobs. */
struct EngineConfig
{
    std::size_t workers = 1;         //!< worker threads (--jobs N)
    int max_attempts = 3;            //!< attempts for transient failures
    std::uint64_t backoff_base_ms = 10;  //!< doubles per retry ...
    std::uint64_t backoff_cap_ms = 500;  //!< ... up to this cap
    /**
     * Decorrelate retry backoff: sleep a seeded-uniform duration in
     * [delay/2, delay] instead of exactly the exponential delay, so N
     * processes retrying the same transiently-failing trace
     * spread their filesystem hits instead of thundering in lockstep.
     * The draw is a pure function of (jitter_salt, job id, attempt) —
     * timing only, never results — and jitter_salt should differ per
     * process sharing a result store (engine_config salts it with the
     * process id).
     */
    bool backoff_jitter = true;
    std::uint64_t jitter_salt = 0;
    bool fail_fast = false;          //!< first failure skips the rest
    //! wall-clock watchdog deadline per attempt; 0 disables it (the
    //! per-job step budget in JobSpec::watchdog_steps still applies)
    std::uint64_t watchdog_wall_ms = 0;
    FaultPlan faults;                //!< injected-fault plan (tests/CI)
    //! seeded self-SIGKILL at a job's claim/run/publish boundaries
    //! (chaos drills; crossed only with a result store)
    ProcessFaultPlan proc_faults;
    /**
     * Result store (non-owning, may be null): stored results are
     * reported, the rest claimed, run and published (see store.h).
     */
    ResultStore *store = nullptr;
    /**
     * Telemetry session (non-owning, may be null): the engine emits
     * schedule/run/retry/publish trace spans per worker thread onto
     * its tracer and threads the session into every JobContext so job
     * bodies can arm per-run epoch sampling.
     */
    TelemetrySession *telemetry = nullptr;
    /**
     * Warmup-snapshot cache (non-owning, may be null): threaded into
     * every JobContext so job bodies can resolve their warmup phase
     * through snapshot reuse instead of re-simulating it.
     */
    SnapshotCache *snapshot = nullptr;
};

/**
 * Cooperative watchdog hook: cancels a run by throwing
 * JobError(kTimeout) once it exceeds its machine-step budget, or —
 * checked at a coarse heartbeat cadence so the hot path stays a
 * single compare — its wall-clock deadline.
 */
class Watchdog final : public RunTickHook
{
  public:
    /**
     * @param step_budget cancel after this many machine steps (0 = no
     *        step budget)
     * @param wall_ms     cancel once this much wall time has elapsed
     *        since construction (0 = no deadline)
     */
    Watchdog(std::uint64_t step_budget, std::uint64_t wall_ms);

    void on_tick(std::uint64_t steps) override;
    //! the step past the budget, or the next heartbeat if sooner
    std::uint64_t next_tick(std::uint64_t steps) override;

  private:
    //! wall-clock checks happen every this many ticks
    static constexpr std::uint64_t kHeartbeatSteps = 2048;

    std::uint64_t step_budget_;
    std::uint64_t wall_ms_;
    std::chrono::steady_clock::time_point deadline_;
};

/** Per-attempt context the engine hands to a job body. */
struct JobContext
{
    /**
     * Composed watchdog + fault-injection hook; pass it into
     * simulate() (sim/runner.h), the one run function, or invoke
     * on_tick manually from non-machine job bodies. Never null inside
     * a job body.
     */
    RunTickHook *hook = nullptr;
    int attempt = 1;  //!< 1-based attempt number
    //! telemetry session (null when the sweep runs untelemetried)
    TelemetrySession *telemetry = nullptr;
    //! trace process id reserved for this job's sim-phase spans and
    //! per-core counter tracks (kJobPidBase + job id)
    std::uint32_t trace_pid = 0;
    //! warmup-snapshot cache (null when reuse is off)
    SnapshotCache *snapshot = nullptr;
};

//! trace pid layout: 1 = the engine itself, jobs from here up
inline constexpr std::uint32_t kEnginePid = 1;
inline constexpr std::uint32_t kJobPidBase = 2;

/**
 * A job body: turns one JobSpec into a JobOutput, or throws. Contract:
 * the output is a function of the spec and the build alone (never of
 * the id, the attempt, the wall clock or what ran before), because a
 * result store serves it to every later run with an equal job_key.
 */
using JobFn = std::function<JobOutput(const JobSpec &, JobContext &)>;

/** Human-readable report label for @p spec ("trace scheme=... ..."). */
std::string job_label(const JobSpec &spec);

/** What the engine hands back after draining the matrix. */
struct EngineReport
{
    std::vector<JobResult> results;  //!< ascending job id
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t skipped = 0;
    std::size_t stored = 0;  //!< completed jobs read from the store

    bool all_completed() const { return failed == 0 && skipped == 0; }

    /** Jobs this run executed: every completed or failed one not read. */
    std::size_t ran() const { return completed + failed - stored; }

    /**
     * Deterministic human-readable report: one summary line (with the
     * jobs run and found stored) plus one line per failed/skipped job
     * in ascending id order.
     */
    std::string summary() const;
};

/**
 * Backoff before retry @p attempt (1-based) of job @p id: capped
 * exponential (base * 2^(attempt-1), clamped to the cap), then — when
 * cfg.backoff_jitter — decorrelated into [delay/2, delay] by a draw
 * seeded with (cfg.jitter_salt, id, attempt). Exposed for tests.
 */
std::uint64_t backoff_delay_ms(const EngineConfig &cfg, std::size_t id,
                               int attempt);

/** The engine. Construct once per sweep; run() drains the whole matrix. */
class JobEngine
{
  public:
    explicit JobEngine(EngineConfig cfg);

    /**
     * Execute @p jobs (dense ids: jobs[i].id must equal i) through
     * @p fn, dispatched in id order. Blocks until every job
     * completed (here, or by a peer sharing the store), failed
     * permanently, or was skipped; never throws for job-level
     * failures.
     */
    EngineReport run(const std::vector<JobSpec> &jobs, const JobFn &fn);

    const EngineConfig &config() const { return cfg_; }

  private:
    /**
     * Execute one spec through the full per-attempt machinery
     * (isolation, classification, watchdog, fault injection, retry
     * with jittered backoff) without touching the store. @p lease,
     * when non-null, heads the per-attempt tick-hook chain, so a
     * claimed job's lease refresh rides the watchdog's cadence.
     */
    JobResult execute_one(const JobSpec &spec, const JobFn &fn,
                          const FaultInjector &injector,
                          std::uint32_t worker, RunTickHook *lease) const;

    EngineConfig cfg_;
};

}  // namespace moka

#endif  // MOKASIM_SIM_JOBS_ENGINE_H
