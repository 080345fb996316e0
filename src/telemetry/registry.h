/**
 * @file
 * Thread-safe metric registry (telemetry surface (a)). Subsystems
 * register named instruments once and update them lock-free:
 *
 *  - Counter:         monotonically increasing 64-bit count
 *  - Gauge:           last-written double
 *  - MetricHistogram: fixed-bucket distribution (bounds set at
 *                     registration; atomic per-bucket counts)
 *  - probe:           read-on-snapshot callback for values that live
 *                     in existing structs
 *
 * Registration takes a mutex; updates touch only relaxed atomics, so
 * concurrent job-engine workers can share one registry. snapshot()
 * flattens every instrument to (name, value) rows in registration
 * order, which is what the timeseries sampler serializes.
 */
#ifndef MOKASIM_TELEMETRY_REGISTRY_H
#define MOKASIM_TELEMETRY_REGISTRY_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hot_path.h"
#include "common/thread_annotations.h"

namespace moka {

/** Monotonic event count. */
class Counter
{
  public:
    /** Add @p n (relaxed; safe from any thread). */
    void add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    /** Current count. */
    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written value. */
class Gauge
{
  public:
    /** Overwrite the value (relaxed; safe from any thread). */
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    /** Current value. */
    double value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram: bucket i counts samples in
 * (bound[i-1], bound[i]]; one extra overflow bucket counts samples
 * above the last bound. Bounds are fixed at registration so snapshots
 * are columnar-stable.
 */
class MetricHistogram
{
  public:
    /** @param bounds ascending bucket upper bounds (may be empty). */
    explicit MetricHistogram(std::vector<double> bounds);

    /** Record one sample. */
    void observe(double v);

    /** Bucket count (buckets() entries, last one = overflow). */
    std::uint64_t count(std::size_t bucket) const;

    /** Number of buckets including the overflow bucket. */
    std::size_t buckets() const { return counts_.size(); }

    /** Total samples recorded. */
    std::uint64_t total() const;

    /** Upper bound of bucket @p i (overflow bucket: +inf). */
    double bound(std::size_t i) const;

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> counts_;
};

/** See file comment. */
class MetricRegistry
{
  public:
    /**
     * Find or create the counter @p name. The returned reference is
     * stable for the registry's lifetime. Re-registering a name as a
     * different instrument kind is a usage error (SIM_REQUIRE).
     */
    // Registration takes the mutex: do it once at setup and cache
    // the returned reference; hot code must never re-look-up.
    SIM_COLD Counter &counter(const std::string &name) SIM_EXCLUDES(mu_);

    /** Find or create the gauge @p name. */
    SIM_COLD Gauge &gauge(const std::string &name) SIM_EXCLUDES(mu_);

    /**
     * Find or create the histogram @p name; @p bounds is used only on
     * first registration.
     */
    SIM_COLD MetricHistogram &histogram(const std::string &name,
                               std::vector<double> bounds)
        SIM_EXCLUDES(mu_);

    /**
     * Register a read-on-snapshot probe. The callback is invoked by
     * snapshot(), so the data it reads must outlive the registry or
     * the caller must stop snapshotting first. Re-registering a probe
     * name replaces the callback (structs move between runs).
     */
    SIM_COLD void probe(const std::string &name, std::function<double()> fn)
        SIM_EXCLUDES(mu_);

    /** One flattened metric value. */
    struct Sample
    {
        std::string name;
        double value = 0.0;
        //! true for counters and histogram buckets (the timeseries
        //! sampler turns these into per-epoch deltas)
        bool cumulative = false;
    };

    /**
     * Flatten every instrument in registration order. Histograms
     * expand to `<name>.le_<bound>` bucket counts plus
     * `<name>.count`.
     */
    SIM_COLD std::vector<Sample> snapshot() const SIM_EXCLUDES(mu_);

    /** Number of registered instruments. */
    std::size_t size() const SIM_EXCLUDES(mu_);

  private:
    enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram, kProbe };

    struct Entry
    {
        std::string name;
        Kind kind = Kind::kCounter;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<MetricHistogram> histogram;
        std::function<double()> probe;
    };

    SIM_COLD Entry &find_or_create(const std::string &name, Kind kind)
        SIM_REQUIRES(mu_);

    mutable SimMutex mu_;
    //! registration order
    std::vector<std::unique_ptr<Entry>> entries_ SIM_GUARDED_BY(mu_);
    std::unordered_map<std::string, std::size_t> index_
        SIM_GUARDED_BY(mu_);
};

}  // namespace moka

#endif  // MOKASIM_TELEMETRY_REGISTRY_H
