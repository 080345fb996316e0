/**
 * @file
 * Job model for the fault-tolerant experiment engine: one job is one
 * cell of the (workload, scheme, prefetcher) matrix, executed in
 * isolation by the engine (src/sim/jobs/engine.h). Failures are
 * classified into a stable taxonomy (JobErrorCode) that the failure
 * report and the retry policy key on.
 */
#ifndef MOKASIM_SIM_JOBS_JOB_H
#define MOKASIM_SIM_JOBS_JOB_H

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/report.h"
#include "sim/runner.h"
#include "trace/suites.h"

namespace moka {

/**
 * Why a job failed. The taxonomy is stable: codes are reported by
 * name and drive the retry policy.
 */
enum class JobErrorCode : std::uint8_t {
    kTraceCorrupt,   //!< workload/trace failed to load or parse
    kConfigInvalid,  //!< scheme/prefetcher/machine config rejected
    kAuditFailure,   //!< invariant auditor flagged the finished run
    kTimeout,        //!< watchdog cancelled a hung or stalled run
    kOom,            //!< allocation failure while building/running
    kLeaseLost,      //!< lost the job's lease to a peer process
    kSnapshotInvalid,  //!< warmup snapshot rejected (corrupt/mismatched)
    kUnknown,        //!< unclassified exception escaping the job body
};

/** Stable report name of @p code (e.g. "trace_corrupt"). */
const char *to_string(JobErrorCode code);

/**
 * True when @p code marks a transient failure worth retrying with
 * backoff (stragglers, stalls, memory pressure); permanent failures
 * (corrupt input, bad config, audit findings) fail on first attempt.
 */
bool is_transient(JobErrorCode code);

/** Classified job failure; thrown by job bodies, caught by the engine. */
class JobError : public std::runtime_error
{
  public:
    JobError(JobErrorCode code, const std::string &message)
        : std::runtime_error(message), code_(code)
    {
    }

    JobErrorCode code() const { return code_; }
    bool transient() const { return is_transient(code_); }

  private:
    JobErrorCode code_;
};

/** Terminal state of one job after the engine is done with it. */
enum class JobStatus : std::uint8_t {
    kCompleted,  //!< produced a result (possibly after retries)
    kFailed,     //!< exhausted retries or failed permanently
    kSkipped,    //!< never ran (--fail-fast after an earlier failure)
};

/** Stable report name of @p status. */
const char *to_string(JobStatus status);

/**
 * One cell of the experiment matrix. `id` is the dense job index and
 * the only ordering the engine honours: results, CSV rows and the
 * failure report are always emitted in ascending id so an N-worker
 * run is byte-identical to a serial one. Every field but `id` and
 * `watchdog_steps` names what the job computes, and job_key
 * (sim/jobs/store.h) hashes exactly those.
 */
struct JobSpec
{
    std::size_t id = 0;
    WorkloadSpec workload{};     //!< roster entry (ignored with trace_path)
    std::string trace_path;      //!< non-empty: replay this trace file
    std::string scheme;          //!< scheme name, parsed by the job body
    std::string prefetcher;      //!< prefetcher name, parsed by the body
    RunConfig run;               //!< instruction budgets
    double large_page_fraction = 0.0;
    //! cooperative watchdog: cancel after this many machine steps
    //! (0 disables the step budget for this job)
    std::uint64_t watchdog_steps = 0;

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("id", s.id...);
        v("workload", s.workload...);
        v("trace_path", s.trace_path...);
        v("scheme", s.scheme...);
        v("prefetcher", s.prefetcher...);
        v("run", s.run...);
        v("large_page_fraction", s.large_page_fraction...);
        v("watchdog_steps", s.watchdog_steps...);
    }
};

/**
 * What a completed job hands back: a canonical labelled result row
 * plus harness-specific scalars (e.g. fig19's weighted IPCs). The
 * result store keeps both, so a stored output equals a fresh one.
 */
struct JobOutput
{
    ResultRow row;
    std::vector<double> aux;
};

/** Engine-side record of one job's fate. */
struct JobResult
{
    std::size_t id = 0;
    std::string label;           //!< "workload scheme prefetcher" (reports)
    JobStatus status = JobStatus::kSkipped;
    int attempts = 0;
    JobErrorCode error = JobErrorCode::kUnknown;  //!< valid when failed
    std::string error_message;
    JobOutput output;            //!< valid when completed
    bool stored = false;         //!< read from the result store, not run
};

}  // namespace moka

#endif  // MOKASIM_SIM_JOBS_JOB_H
