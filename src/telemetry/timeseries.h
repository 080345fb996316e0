/**
 * @file
 * Epoch timeseries sampling (telemetry surface (b)).
 *
 * Layers, bottom up:
 *
 *  - Timeseries: columnar in-memory buffer (column set frozen by the
 *    first row) flushed as CSV or JSONL once the run is over;
 *  - EpochSampler: a RunTickHook that invokes a callback every
 *    `cadence` machine steps — the only thing on the sim hot path,
 *    costing one compare-and-branch per step;
 *  - MachineSampler: snapshots a Machine per epoch — per-core IPC,
 *    MPKIs, page-cross counters and the filter's FilterTelemetry
 *    (T_a, perceptron-sum distribution, vUB/pUB reward-punish rates,
 *    per-feature contribution) — into a Timeseries and optional
 *    Chrome counter tracks;
 *  - ScopedRunTelemetry: RAII bundle the runner uses to arm all of
 *    the above for one labelled run and flush files on destruction.
 */
#ifndef MOKASIM_TELEMETRY_TIMESERIES_H
#define MOKASIM_TELEMETRY_TIMESERIES_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/machine.h"
#include "telemetry/telemetry.h"

namespace moka {

/** One (column, value) cell of a timeseries row. */
using TimeseriesCell = std::pair<std::string, double>;

/** Columnar buffer; see file comment. */
class Timeseries
{
  public:
    /**
     * Append one row. The first append freezes the column set; later
     * rows must present the same columns in the same order
     * (SIM_REQUIRE), which keeps the buffer rectangular.
     */
    void append(const std::vector<TimeseriesCell> &row);

    /** Frozen column names (empty before the first append). */
    const std::vector<std::string> &columns() const { return columns_; }

    /** Number of rows appended. */
    std::size_t rows() const
    {
        return columns_.empty() ? 0 : data_.size() / columns_.size();
    }

    /** Cell value at (@p row, @p col). */
    double at(std::size_t row, std::size_t col) const
    {
        return data_[row * columns_.size() + col];
    }

    /** Write `col,col,...\n` header + one CSV line per row. */
    bool write_csv(const std::string &path) const;

    /** Write one JSON object per row ({"col":value,...}). */
    bool write_jsonl(const std::string &path) const;

  private:
    std::vector<std::string> columns_;
    std::vector<double> data_;  //!< row-major
};

/**
 * RunTickHook firing a callback every @p cadence machine steps; it
 * asks Machine::run for no step in between.
 */
class EpochSampler : public RunTickHook
{
  public:
    using SampleFn = std::function<void(std::uint64_t steps)>;

    EpochSampler(std::uint64_t cadence, SampleFn fn);

    void on_tick(std::uint64_t steps) override
    {
        if (steps < next_) {
            return;
        }
        next_ = steps + cadence_;
        fn_(steps);
    }

    std::uint64_t next_tick(std::uint64_t steps) override
    {
        return std::max(steps + 1, next_);
    }

  private:
    std::uint64_t cadence_;
    std::uint64_t next_;
    SampleFn fn_;
};

/** Per-epoch Machine snapshotter; see file comment. */
class MachineSampler
{
  public:
    /**
     * @param machine sampled machine (non-owning; must outlive this)
     * @param out     destination buffer (non-owning)
     * @param tracer  optional: emit per-epoch counter tracks
     *        ("T_a", "pgc_acc" per core) onto (pid, tid=core)
     * @param pid     trace process id for the counter tracks
     */
    MachineSampler(const Machine *machine, Timeseries *out,
                   Tracer *tracer = nullptr, std::uint32_t pid = 0);

    /** Take one sample at machine-step @p steps. */
    void sample(std::uint64_t steps);

    /** sample() at the machine's current step count. */
    void sample_now();

    /** Samples taken so far. */
    std::uint64_t samples() const { return sample_index_; }

  private:
    const Machine *machine_;
    Timeseries *out_;
    Tracer *tracer_;
    std::uint32_t pid_;
    std::vector<RunMetrics> last_;
    std::vector<FilterTelemetry> last_filter_;
    std::uint64_t sample_index_ = 0;
};

/**
 * Arms epoch sampling (and an optional "warmup"/"measure" phase span)
 * for one labelled run. Inert — every method degenerates to the inner
 * hook / no-op — when @p session is null or inactive, so callers
 * construct it unconditionally.
 *
 * On destruction, takes a final sample and writes
 * `<dir>/<label>.epochs.csv` + `.jsonl` (when the session has a
 * timeseries directory).
 */
class ScopedRunTelemetry
{
  public:
    /**
     * @param session telemetry session (null = inert)
     * @param machine machine to sample (non-owning)
     * @param label   run label, sanitized for file names
     * @param pid     trace process id of this run's counter tracks
     */
    ScopedRunTelemetry(TelemetrySession *session, const Machine *machine,
                       const std::string &label, std::uint32_t pid = 0);
    ~ScopedRunTelemetry();

    ScopedRunTelemetry(const ScopedRunTelemetry &) = delete;
    ScopedRunTelemetry &operator=(const ScopedRunTelemetry &) = delete;

    /**
     * Chain the epoch-sampling hook after @p inner; returns @p inner
     * unchanged when inert.
     */
    RunTickHook *hook(RunTickHook *inner);

    /** Record phase @p name as a span around @p body (always runs). */
    void span(const char *name, const std::function<void()> &body);

    /** True when sampling is armed. */
    bool active() const { return sampler_ != nullptr; }

  private:
    TelemetrySession *session_;
    std::string label_;
    std::uint32_t pid_;
    Timeseries series_;
    std::unique_ptr<MachineSampler> sampler_;
    std::unique_ptr<EpochSampler> epoch_hook_;
    TickHookChain chain_;
};

}  // namespace moka

#endif  // MOKASIM_TELEMETRY_TIMESERIES_H
