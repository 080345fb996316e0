/**
 * @file
 * Structured event tracer (telemetry surface (c)) emitting Chrome
 * `trace_event` JSON that loads in chrome://tracing and Perfetto.
 *
 * Event model (the subset of the trace_event spec we emit):
 *
 *  - complete ("X"): a span with begin timestamp + duration, bound to
 *    a (pid, tid) track — job-engine jobs, per-core sim phases
 *  - instant ("i"):  a point event — retries, result publishes
 *  - counter ("C"):  a numeric track sampled over time — T_a, PGC
 *    accuracy per epoch
 *  - metadata ("M"): process_name / thread_name labels for the tracks
 *
 * Events are appended into a fixed-capacity ring buffer under a
 * mutex; when the ring wraps the oldest events are overwritten and a
 * drop counter records how many were lost (flushing happens off the
 * hot path, never inside the sim loop). Timestamps are explicit
 * microsecond values so tests can emit deterministic traces; live
 * callers use now_us().
 */
#ifndef MOKASIM_TELEMETRY_TRACE_EVENT_H
#define MOKASIM_TELEMETRY_TRACE_EVENT_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace moka {

/** One trace_event row; see file comment for the phase vocabulary. */
struct TraceEvent
{
    char phase = 'X';       //!< 'X' complete, 'i' instant, 'C' counter
    std::uint32_t pid = 0;  //!< process track (e.g. engine vs. core)
    std::uint32_t tid = 0;  //!< thread track (worker index, core index)
    std::uint64_t ts_us = 0;   //!< event begin, microseconds
    std::uint64_t dur_us = 0;  //!< duration ('X' only)
    std::string name;
    std::string args_json;  //!< preformatted JSON object body, "" = none
};

/** See file comment. */
class Tracer
{
  public:
    /** @param capacity ring size in events (oldest overwritten). */
    explicit Tracer(std::size_t capacity = 1u << 16);

    /** Microseconds on a steady clock since tracer construction. */
    std::uint64_t now_us() const;

    /** Label a pid track ("M" process_name metadata). */
    void register_process(std::uint32_t pid, const std::string &name)
        SIM_EXCLUDES(mu_);

    /** Label a (pid, tid) track ("M" thread_name metadata). */
    void register_thread(std::uint32_t pid, std::uint32_t tid,
                         const std::string &name) SIM_EXCLUDES(mu_);

    /**
     * Record a complete span ('X').
     * @param args_json preformatted JSON object ("" = omit args)
     */
    void complete(std::uint32_t pid, std::uint32_t tid,
                  const std::string &name, std::uint64_t ts_us,
                  std::uint64_t dur_us, const std::string &args_json = "")
        SIM_EXCLUDES(mu_);

    /** Record an instant event ('i', thread scope). */
    void instant(std::uint32_t pid, std::uint32_t tid,
                 const std::string &name, std::uint64_t ts_us,
                 const std::string &args_json = "") SIM_EXCLUDES(mu_);

    /** Record a counter sample ('C'); @p series names the value. */
    void counter(std::uint32_t pid, std::uint32_t tid,
                 const std::string &name, std::uint64_t ts_us,
                 const std::string &series, double value)
        SIM_EXCLUDES(mu_);

    /** Events currently buffered (metadata excluded). */
    std::size_t size() const SIM_EXCLUDES(mu_);

    /** Events lost to ring wrap-around. */
    std::uint64_t dropped() const SIM_EXCLUDES(mu_);

    /**
     * Write the whole trace as `{"traceEvents":[...]}` — metadata
     * first, then buffered events sorted by timestamp, one event per
     * line (parseable line-wise by the golden test and mergeable by
     * timeline_tool).
     */
    void write_json(std::ostream &os) const SIM_EXCLUDES(mu_);

    /** write_json to @p path; returns false on I/O failure. */
    bool write_json_file(const std::string &path) const;

    /** JSON-escape @p s (quotes, backslashes, control characters). */
    static std::string escape(const std::string &s);

  private:
    void push_locked(TraceEvent event) SIM_REQUIRES(mu_);

    mutable SimMutex mu_;
    std::size_t capacity_;  //!< const after construction (unguarded)
    std::vector<TraceEvent> ring_ SIM_GUARDED_BY(mu_);
    //! next write slot once the ring is full
    std::size_t head_ SIM_GUARDED_BY(mu_) = 0;
    bool wrapped_ SIM_GUARDED_BY(mu_) = false;
    std::uint64_t dropped_ SIM_GUARDED_BY(mu_) = 0;
    //! never dropped
    std::vector<TraceEvent> metadata_ SIM_GUARDED_BY(mu_);
    std::uint64_t epoch_us_;  //!< steady-clock construction time (const)
};

/**
 * RAII complete-span helper; null-safe so instrumentation sites can
 * hold a possibly-null Tracer*. The span is recorded at destruction
 * with the elapsed wall time.
 */
class TraceSpan
{
  public:
    TraceSpan(Tracer *tracer, std::uint32_t pid, std::uint32_t tid,
              std::string name, std::string args_json = "");
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    Tracer *tracer_;
    std::uint32_t pid_;
    std::uint32_t tid_;
    std::string name_;
    std::string args_json_;
    std::uint64_t begin_us_ = 0;
};

}  // namespace moka

#endif  // MOKASIM_TELEMETRY_TRACE_EVENT_H
