#include "telemetry/registry.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/check.h"

namespace moka {

MetricHistogram::MetricHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1)
{
    SIM_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()),
                "histogram bucket bounds must be ascending");
}

void
MetricHistogram::observe(double v)
{
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    counts_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
        1, std::memory_order_relaxed);
}

std::uint64_t
MetricHistogram::count(std::size_t bucket) const
{
    return counts_[bucket].load(std::memory_order_relaxed);
}

std::uint64_t
MetricHistogram::total() const
{
    std::uint64_t sum = 0;
    for (const auto &c : counts_) {
        sum += c.load(std::memory_order_relaxed);
    }
    return sum;
}

double
MetricHistogram::bound(std::size_t i) const
{
    return i < bounds_.size()
               ? bounds_[i]
               : std::numeric_limits<double>::infinity();
}

MetricRegistry::Entry &
MetricRegistry::find_or_create(const std::string &name, Kind kind)
{
    const auto it = index_.find(name);
    if (it != index_.end()) {
        Entry &entry = *entries_[it->second];
        SIM_REQUIRE(entry.kind == kind || kind == Kind::kProbe,
                    "metric re-registered as a different instrument kind");
        return entry;
    }
    auto entry = std::make_unique<Entry>();
    entry->name = name;
    entry->kind = kind;
    index_.emplace(name, entries_.size());
    entries_.push_back(std::move(entry));
    return *entries_.back();
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    SimMutexLock lock(&mu_);
    Entry &entry = find_or_create(name, Kind::kCounter);
    if (entry.counter == nullptr) {
        entry.counter = std::make_unique<Counter>();
    }
    return *entry.counter;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    SimMutexLock lock(&mu_);
    Entry &entry = find_or_create(name, Kind::kGauge);
    if (entry.gauge == nullptr) {
        entry.gauge = std::make_unique<Gauge>();
    }
    return *entry.gauge;
}

MetricHistogram &
MetricRegistry::histogram(const std::string &name, std::vector<double> bounds)
{
    SimMutexLock lock(&mu_);
    Entry &entry = find_or_create(name, Kind::kHistogram);
    if (entry.histogram == nullptr) {
        entry.histogram = std::make_unique<MetricHistogram>(std::move(bounds));
    }
    return *entry.histogram;
}

void
MetricRegistry::probe(const std::string &name, std::function<double()> fn)
{
    SimMutexLock lock(&mu_);
    Entry &entry = find_or_create(name, Kind::kProbe);
    SIM_REQUIRE(entry.kind == Kind::kProbe,
                "metric re-registered as a different instrument kind");
    entry.probe = std::move(fn);
}

std::vector<MetricRegistry::Sample>
MetricRegistry::snapshot() const
{
    SimMutexLock lock(&mu_);
    std::vector<Sample> out;
    out.reserve(entries_.size());
    for (const auto &entry : entries_) {
        switch (entry->kind) {
          case Kind::kCounter:
            out.push_back({entry->name,
                           static_cast<double>(entry->counter->value()),
                           /*cumulative=*/true});
            break;
          case Kind::kGauge:
            out.push_back({entry->name, entry->gauge->value(),
                           /*cumulative=*/false});
            break;
          case Kind::kProbe:
            out.push_back({entry->name, entry->probe ? entry->probe() : 0.0,
                           /*cumulative=*/false});
            break;
          case Kind::kHistogram: {
            const MetricHistogram &h = *entry->histogram;
            for (std::size_t b = 0; b < h.buckets(); ++b) {
                char suffix[48];
                if (b + 1 < h.buckets()) {
                    std::snprintf(suffix, sizeof(suffix), ".le_%g",
                                  h.bound(b));
                } else {
                    std::snprintf(suffix, sizeof(suffix), ".le_inf");
                }
                out.push_back({entry->name + suffix,
                               static_cast<double>(h.count(b)),
                               /*cumulative=*/true});
            }
            out.push_back({entry->name + ".count",
                           static_cast<double>(h.total()),
                           /*cumulative=*/true});
            break;
          }
        }
    }
    return out;
}

std::size_t
MetricRegistry::size() const
{
    SimMutexLock lock(&mu_);
    return entries_.size();
}

}  // namespace moka
