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
      case JobErrorCode::kOom: return "oom";
      case JobErrorCode::kLeaseLost: return "lease_lost";
      case JobErrorCode::kSnapshotInvalid: return "snapshot_invalid";
      case JobErrorCode::kUnknown: break;
    }
    return "unknown";
}

bool
is_transient(JobErrorCode code)
{
    // Timeouts are stragglers/stalls and OOM is memory pressure from
    // neighbouring jobs: both may succeed on a quieter retry. Corrupt
    // input, bad configuration and audit findings are deterministic.
    // A lost lease is permanent *for this process*: the peer that stole
    // the job owns it now, so retrying locally would double-execute.
    // A rejected snapshot is handled inline (cold-warmup fallback), so
    // a job that still fails with it would fail again on retry.
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
