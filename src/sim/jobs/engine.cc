#include "sim/jobs/engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <sstream>
#include <thread>

#include "common/check.h"
#include "common/hashing.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "sim/jobs/store.h"
#include "telemetry/telemetry.h"

namespace moka {
namespace {

/** Delivers one FaultInjector decision as machine-tick behaviour. */
class FaultHook final : public RunTickHook
{
  public:
    FaultHook(const FaultInjector::Decision &decision,
              std::uint64_t stall_ms)
        : decision_(decision), stall_ms_(stall_ms)
    {
    }

    void on_tick(std::uint64_t steps) override
    {
        using Kind = FaultInjector::Decision::Kind;
        if (fired_ || decision_.kind == Kind::kNone ||
            steps < decision_.at_tick) {
            return;
        }
        fired_ = true;
        if (decision_.kind == Kind::kThrow) {
            // LINT_HOT_OK: injected-fault exit; fires at most once
            // per run, then the job unwinds (rule L14).
            std::ostringstream os;
            os << "injected fault at tick " << steps;
            throw JobError(decision_.transient ? JobErrorCode::kTimeout
                                               : JobErrorCode::kUnknown,
                           os.str());
        }
        // Stall: sleep past the wall-clock deadline so the watchdog
        // (which runs after us in the chain) cancels the run.
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
    }

    std::uint64_t next_tick(std::uint64_t steps) override
    {
        if (fired_ ||
            decision_.kind == FaultInjector::Decision::Kind::kNone) {
            return kNever;
        }
        return std::max(steps + 1, decision_.at_tick);
    }

  private:
    FaultInjector::Decision decision_;
    std::uint64_t stall_ms_;
    bool fired_ = false;
};

/**
 * Lease heartbeat threaded first into a claimed job's tick-hook
 * chain: while the body runs, touch the lease every TTL/4 so peers
 * see a live owner. The wall clock is read on a coarse step cadence
 * (like the Watchdog), the only steps the hook asks to see. Losing the
 * lease aborts the run with kLeaseLost: a peer owns the job now, and
 * this run must not publish.
 */
class LeaseHeartbeat final : public RunTickHook
{
  public:
    //! wall-clock checks happen every this many machine steps
    static constexpr std::uint64_t kCheckSteps = 1024;

    LeaseHeartbeat(const LeaseDir &leases, std::uint64_t key)
        : leases_(leases), key_(key),
          interval_(std::chrono::milliseconds(
              std::max<std::uint64_t>(1, leases.ttl_ms() / 4))),
          // LINT_NONDET_OK: heartbeat cadence is wall time by design;
          // it gates only which process publishes, never a result.
          next_(std::chrono::steady_clock::now() + interval_)
    {
    }

    void on_tick(std::uint64_t steps) override
    {
        if (steps % kCheckSteps != 0) {
            return;
        }
        // LINT_NONDET_OK: heartbeat check, as above.
        const auto now = std::chrono::steady_clock::now();
        if (now < next_) {
            return;
        }
        next_ = now + interval_;
        if (!leases_.refresh(key_)) {
            // LINT_HOT_OK: lease-lost exit; fires at most once per
            // run, then the attempt unwinds (rule L14).
            throw JobError(JobErrorCode::kLeaseLost,
                           "job lease lost to a peer; abandoning this run");
        }
    }

    std::uint64_t next_tick(std::uint64_t steps) override
    {
        return (steps / kCheckSteps + 1) * kCheckSteps;
    }

  private:
    const LeaseDir &leases_;
    std::uint64_t key_;
    std::chrono::steady_clock::duration interval_;
    std::chrono::steady_clock::time_point next_;
};

/**
 * The jobs still to settle, in id order. A job whose lease a
 * peer holds goes to the back; a worker sleeps only once it has
 * deferred every pending job in a row, i.e. when nothing else can run.
 */
class Dispatch
{
  public:
    //! sleep while every pending job is held by a peer
    static constexpr std::uint64_t kPollMs = 50;

    explicit Dispatch(std::size_t jobs)
    {
        for (std::size_t i = 0; i < jobs; ++i) {
            pending_.push_back(i);
        }
    }

    /** Pop the next job into @p i; false once none is left. */
    bool next(std::size_t &i) SIM_EXCLUDES(mu_)
    {
        SimMutexLock lock(&mu_);
        if (pending_.empty()) {
            return false;
        }
        i = pending_.front();
        pending_.pop_front();
        return true;
    }

    /** Requeue @p i, a job a peer is running. */
    void defer(std::size_t i) SIM_EXCLUDES(mu_)
    {
        bool idle = false;
        {
            SimMutexLock lock(&mu_);
            pending_.push_back(i);
            idle = ++deferred_ >= pending_.size();
            if (idle) {
                deferred_ = 0;
            }
        }
        if (idle) {
            std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
        }
    }

    /** A job settled: the deferral streak is broken. */
    void settled() SIM_EXCLUDES(mu_)
    {
        SimMutexLock lock(&mu_);
        deferred_ = 0;
    }

  private:
    SimMutex mu_;
    std::deque<std::size_t> pending_ SIM_GUARDED_BY(mu_);
    //! consecutive deferrals since a job last settled
    std::size_t deferred_ SIM_GUARDED_BY(mu_) = 0;
};

/** The engine's tracer, or null when tracing is not armed. */
Tracer *
engine_tracer(const EngineConfig &cfg)
{
    if (cfg.telemetry == nullptr || !telemetry_enabled()) {
        return nullptr;
    }
    return cfg.telemetry->tracer();
}

}  // namespace

std::string
job_label(const JobSpec &spec)
{
    std::string label = spec.trace_path.empty() ? spec.workload.name
                                                : spec.trace_path;
    if (!spec.scheme.empty()) {
        label += " scheme=" + spec.scheme;
    }
    if (!spec.prefetcher.empty()) {
        label += " prefetcher=" + spec.prefetcher;
    }
    return label;
}

Watchdog::Watchdog(std::uint64_t step_budget, std::uint64_t wall_ms)
    : step_budget_(step_budget), wall_ms_(wall_ms),
      // LINT_NONDET_OK: the watchdog deadline is wall time by design;
      // a timeout only classifies a failure, never a result value.
      deadline_(std::chrono::steady_clock::now() +
                std::chrono::milliseconds(wall_ms))
{
}

void
Watchdog::on_tick(std::uint64_t steps)
{
    if (step_budget_ > 0 && steps > step_budget_) {
        // LINT_HOT_OK: timeout exit; fires at most once per run
        // (rule L14).
        std::ostringstream os;
        os << "watchdog: step budget " << step_budget_
           << " exhausted at tick " << steps;
        throw JobError(JobErrorCode::kTimeout, os.str());
    }
    if (wall_ms_ > 0 && steps % kHeartbeatSteps == 0 &&
        // LINT_NONDET_OK: heartbeat check against the wall deadline.
        std::chrono::steady_clock::now() > deadline_) {
        // LINT_HOT_OK: timeout exit, as above (rule L14).
        std::ostringstream os;
        os << "watchdog: wall deadline of " << wall_ms_
           << " ms exceeded at tick " << steps;
        throw JobError(JobErrorCode::kTimeout, os.str());
    }
}

std::uint64_t
Watchdog::next_tick(std::uint64_t steps)
{
    std::uint64_t next = kNever;
    if (step_budget_ > 0) {
        next = std::max(steps, step_budget_) + 1;
    }
    if (wall_ms_ > 0) {
        next = std::min(next, (steps / kHeartbeatSteps + 1) * kHeartbeatSteps);
    }
    return next;
}

std::uint64_t
backoff_delay_ms(const EngineConfig &cfg, std::size_t id, int attempt)
{
    // Capped exponential: base * 2^(attempt-1), clamped.
    const std::uint64_t shift =
        attempt <= 63 ? static_cast<std::uint64_t>(attempt - 1) : 63;
    const std::uint64_t delay_ms =
        std::min(cfg.backoff_cap_ms,
                 cfg.backoff_base_ms == 0 ? 0
                                          : cfg.backoff_base_ms << shift);
    if (!cfg.backoff_jitter || delay_ms == 0) {
        return delay_ms;
    }
    // Decorrelate across processes: a seeded-uniform draw in
    // [delay/2, delay] keyed on (salt, job, attempt) — pure timing,
    // no effect on any result value.
    Rng rng(hash_combine(hash_combine(cfg.jitter_salt,
                                      static_cast<std::uint64_t>(id)),
                         static_cast<std::uint64_t>(attempt)));
    return delay_ms / 2 + rng.below(delay_ms - delay_ms / 2 + 1);
}

JobEngine::JobEngine(EngineConfig cfg) : cfg_(std::move(cfg))
{
    SIM_REQUIRE(cfg_.max_attempts >= 1,
                "engine needs at least one attempt per job");
}

JobResult
JobEngine::execute_one(const JobSpec &spec, const JobFn &fn,
                       const FaultInjector &injector,
                       std::uint32_t worker, RunTickHook *lease) const
{
    Tracer *tracer = engine_tracer(cfg_);
    JobResult res;
    res.id = spec.id;
    res.label = job_label(spec);
    for (int attempt = 1; attempt <= cfg_.max_attempts; ++attempt) {
        res.attempts = attempt;
        if (tracer != nullptr && attempt > 1) {
            std::ostringstream os;
            os << "{\"job\":" << spec.id << ",\"attempt\":" << attempt
               << ",\"error\":\"" << to_string(res.error) << "\"}";
            tracer->instant(kEnginePid, worker, "retry",
                            tracer->now_us(), os.str());
        }
        const FaultInjector::Decision decision =
            injector.decide(spec.id, attempt);
        FaultHook fault(decision, injector.plan().stall_ms);
        Watchdog watchdog(spec.watchdog_steps, cfg_.watchdog_wall_ms);
        // Lease heartbeat first, then fault, then watchdog: a lease
        // refresh must happen even on the tick a fault fires, and a
        // stall is observed by the deadline check behind it.
        TickHookChain chain;
        if (lease != nullptr) {
            chain.add(lease);
        }
        chain.add(&fault);
        chain.add(&watchdog);
        JobContext ctx;
        ctx.hook = &chain;
        ctx.attempt = attempt;
        ctx.telemetry = cfg_.telemetry;
        ctx.snapshot = cfg_.snapshot;
        ctx.trace_pid =
            kJobPidBase + static_cast<std::uint32_t>(spec.id);
        try {
            res.output = fn(spec, ctx);
            res.status = JobStatus::kCompleted;
            return res;
        } catch (const JobError &e) {
            res.error = e.code();
            res.error_message = e.what();
        } catch (const std::bad_alloc &) {
            res.error = JobErrorCode::kOom;
            res.error_message = "allocation failure";
        } catch (const std::exception &e) {
            res.error = JobErrorCode::kUnknown;
            res.error_message = e.what();
        } catch (...) {  // LINT_CATCH_OK: classified as kUnknown below
            res.error = JobErrorCode::kUnknown;
            res.error_message = "non-standard exception";
        }
        res.status = JobStatus::kFailed;
        if (res.error == JobErrorCode::kLeaseLost) {
            break;  // a peer owns this job now; never retry
        }
        if (!is_transient(res.error) || attempt == cfg_.max_attempts) {
            break;
        }
        // Jittered capped-exponential backoff before retrying a
        // transient failure (see backoff_delay_ms).
        const std::uint64_t delay_ms =
            backoff_delay_ms(cfg_, spec.id, attempt);
        if (delay_ms > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay_ms));
        }
    }
    return res;
}

EngineReport
JobEngine::run(const std::vector<JobSpec> &jobs, const JobFn &fn)
{
    ResultStore *const store = cfg_.store;
    EngineReport report;
    report.results.resize(jobs.size());
    std::vector<std::uint64_t> keys(store != nullptr ? jobs.size() : 0);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SIM_REQUIRE(jobs[i].id == i,
                    "job ids must be dense and in order");
        report.results[i].id = i;
        report.results[i].label = job_label(jobs[i]);
        if (store != nullptr) {
            keys[i] = job_key(jobs[i]);
        }
    }

    Tracer *tracer = engine_tracer(cfg_);
    const std::size_t workers =
        std::max<std::size_t>(1, std::min(cfg_.workers, jobs.size()));
    if (tracer != nullptr) {
        tracer->register_process(kEnginePid, "job-engine");
        for (std::size_t w = 0; w < workers; ++w) {
            tracer->register_thread(kEnginePid,
                                    static_cast<std::uint32_t>(w),
                                    "worker-" + std::to_string(w));
        }
    }

    const FaultInjector injector(cfg_.faults);
    ProcessFaultInjector proc(cfg_.proc_faults);
    Dispatch dispatch(jobs.size());
    std::atomic<bool> abort_rest{false};
    auto worker = [&](std::uint32_t wid) {
        std::size_t i = 0;
        while (dispatch.next(i)) {
            JobResult &res = report.results[i];
            if (store != nullptr && store->load(keys[i], res)) {
                dispatch.settled();
                continue;
            }
            if (abort_rest.load(std::memory_order_relaxed)) {
                res.status = JobStatus::kSkipped;
                res.error_message = "skipped by --fail-fast";
                continue;
            }
            bool leased = false;
            if (store != nullptr) {
                const ClaimOutcome claim =
                    store->leases().try_claim(keys[i]);
                if (claim == ClaimOutcome::kBusy) {
                    dispatch.defer(i);  // a peer runs it; look later
                    continue;
                }
                // An unavailable lease (read-only or vanished store)
                // has no owner to wait for: run the job unleased.
                leased = claim != ClaimOutcome::kUnavailable;
                // A peer may have published between our look and
                // our claim (it publishes before it releases).
                if (store->load(keys[i], res)) {
                    store->leases().release(keys[i]);
                    dispatch.settled();
                    continue;
                }
                proc.maybe_kill(ShardFaultPoint::kClaim, i);
                proc.maybe_kill(ShardFaultPoint::kRun, i);
            }
            std::uint64_t begin_us = 0;
            if (tracer != nullptr) {
                begin_us = tracer->now_us();
                std::ostringstream os;
                os << "{\"job\":" << i << "}";
                tracer->instant(kEnginePid, wid, "schedule", begin_us,
                                os.str());
                tracer->register_process(
                    kJobPidBase + static_cast<std::uint32_t>(i),
                    "job " + std::to_string(i) + ": " + res.label);
            }
            if (!leased) {
                res = execute_one(jobs[i], fn, injector, wid, nullptr);
            } else {
                LeaseHeartbeat heartbeat(store->leases(), keys[i]);
                res = execute_one(jobs[i], fn, injector, wid, &heartbeat);
            }
            if (tracer != nullptr) {
                std::ostringstream os;
                os << "{\"job\":" << i << ",\"status\":\""
                   << to_string(res.status)
                   << "\",\"attempts\":" << res.attempts << "}";
                tracer->complete(kEnginePid, wid,
                                 "job " + std::to_string(i), begin_us,
                                 tracer->now_us() - begin_us, os.str());
            }
            if (store != nullptr) {
                if (res.status == JobStatus::kFailed &&
                    res.error == JobErrorCode::kLeaseLost) {
                    dispatch.defer(i);  // the thief publishes it
                    continue;
                }
                if (res.status == JobStatus::kCompleted) {
                    proc.maybe_kill(ShardFaultPoint::kCommit, i);
                    if (!store->publish(keys[i], res)) {
                        // The result is in the report; only its reuse
                        // by later runs is lost.
                        std::fprintf(stderr, /* LINT_LOG_OK */
                                     "engine: could not store the result "
                                     "of job %zu\n",
                                     i);
                    } else if (tracer != nullptr) {
                        tracer->instant(kEnginePid, wid, "publish",
                                        tracer->now_us(),
                                        "{\"job\":" + std::to_string(i) +
                                            "}");
                    }
                }
                store->leases().release(keys[i]);
            }
            dispatch.settled();
            if (res.status == JobStatus::kFailed && cfg_.fail_fast) {
                abort_rest.store(true, std::memory_order_relaxed);
            }
        }
    };

    if (workers <= 1) {
        worker(0);  // keep serial sweeps genuinely single-threaded
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t i = 0; i < workers; ++i) {
            pool.emplace_back(worker, static_cast<std::uint32_t>(i));
        }
        for (std::thread &t : pool) {
            t.join();
        }
    }

    for (const JobResult &res : report.results) {
        switch (res.status) {
          case JobStatus::kCompleted: ++report.completed; break;
          case JobStatus::kFailed: ++report.failed; break;
          case JobStatus::kSkipped: ++report.skipped; break;
        }
        if (res.stored) {
            ++report.stored;
        }
    }
    return report;
}

std::string
EngineReport::summary() const
{
    std::ostringstream os;
    os << "jobs: " << results.size() << " total, " << completed
       << " completed, " << failed << " failed, " << skipped
       << " skipped; " << ran() << " run, " << stored
       << " from the store\n";
    for (const JobResult &res : results) {
        if (res.status == JobStatus::kFailed) {
            os << "  job " << res.id << " [" << res.label
               << "]: " << to_string(res.error) << ": "
               << res.error_message << " (attempts=" << res.attempts
               << ")\n";
        } else if (res.status == JobStatus::kSkipped) {
            os << "  job " << res.id << " [" << res.label
               << "]: skipped\n";
        }
    }
    return os.str();
}

}  // namespace moka
