/**
 * @file
 * Per-process telemetry session. The on/off gate itself lives in
 * telemetry/gate.h (see there for the two-gate cost model).
 *
 * A TelemetrySession bundles the two output surfaces (epoch
 * timeseries directory, Chrome trace_event tracer) and is threaded by
 * non-owning pointer through the job engine, runner and multicore
 * harness.
 */
#ifndef MOKASIM_TELEMETRY_TELEMETRY_H
#define MOKASIM_TELEMETRY_TELEMETRY_H

#include <memory>
#include <string>

#include "telemetry/gate.h"
#include "telemetry/trace_event.h"

namespace moka {

/**
 * Per-process telemetry context: an optional output directory for
 * epoch timeseries (CSV/JSONL per labelled run) and an optional
 * Chrome trace_event tracer. Construction with both paths empty yields an
 * inactive session that consumers treat like a null pointer.
 */
class TelemetrySession
{
  public:
    /**
     * @param dir        directory for per-run epoch CSV/JSONL files
     *        ("" = no timeseries output); created if missing
     * @param trace_path output file for the merged Chrome trace JSON
     *        ("" = no tracer)
     */
    TelemetrySession(std::string dir, std::string trace_path);

    /** True when at least one output surface is configured. */
    bool active() const { return !dir_.empty() || tracer_ != nullptr; }

    /** Tracer, or null when --trace-events was not given. */
    Tracer *tracer() { return tracer_.get(); }

    /** Timeseries output directory ("" = none). */
    const std::string &dir() const { return dir_; }

    /**
     * Filesystem-safe variant of @p label for per-run file names:
     * every character outside [A-Za-z0-9._-] becomes '_'.
     */
    static std::string sanitize_label(const std::string &label);

    /**
     * Write the trace JSON (when tracing) and return the path it was
     * written to ("" when no tracer). Idempotent; called by tools
     * after a sweep drains.
     */
    std::string flush();

  private:
    std::string dir_;
    std::string trace_path_;
    std::unique_ptr<Tracer> tracer_;
};

}  // namespace moka

#endif  // MOKASIM_TELEMETRY_TELEMETRY_H
