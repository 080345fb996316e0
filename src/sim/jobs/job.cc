#include "sim/jobs/job.h"

namespace moka {

const char *
to_string(JobErrorCode code)
{
    switch (code) {
      case JobErrorCode::kTraceCorrupt: return "trace_corrupt";
      case JobErrorCode::kConfigInvalid: return "config_invalid";
      case JobErrorCode::kAuditFailure: return "audit_failure";
      case JobErrorCode::kTimeout: return "timeout";
      case JobErrorCode::kStepBudget: return "step_budget";
      case JobErrorCode::kOom: return "oom";
      case JobErrorCode::kLeaseLost: return "lease_lost";
      case JobErrorCode::kUnknown: break;
    }
    return "unknown";
}

bool
is_transient(JobErrorCode code)
{
    // Timeouts are stragglers/stalls and OOM is memory pressure from
    // neighbouring jobs: both may succeed on a quieter retry. Corrupt
    // input, bad configuration and audit findings are deterministic,
    // and so is a run's step count, a function of its spec: a retry
    // would exhaust the same step budget at the same step.
    // A lost lease is permanent *for this process*: the peer that stole
    // the job owns it now, so retrying locally would double-execute.
    return code == JobErrorCode::kTimeout || code == JobErrorCode::kOom;
}

const char *
to_string(JobStatus status)
{
    switch (status) {
      case JobStatus::kCompleted: return "completed";
      case JobStatus::kFailed: return "failed";
      case JobStatus::kSkipped: break;
    }
    return "skipped";
}

}  // namespace moka
