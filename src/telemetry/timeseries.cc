#include "telemetry/timeseries.h"

#include <cstdio>
#include <fstream>

#include "common/check.h"
#include "common/fields.h"

namespace moka {

namespace {

std::string
format_value(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

}  // namespace

void
Timeseries::append(const std::vector<TimeseriesCell> &row)
{
    if (columns_.empty() && data_.empty()) {
        columns_.reserve(row.size());
        for (const auto &cell : row) {
            columns_.push_back(cell.first);
        }
    }
    SIM_REQUIRE(row.size() == columns_.size(),
                "timeseries row does not match the frozen column set");
    for (std::size_t i = 0; i < row.size(); ++i) {
        SIM_AUDIT(row[i].first == columns_[i],
                  "timeseries row columns out of order vs. first row");
        data_.push_back(row[i].second);
    }
}

bool
Timeseries::write_csv(const std::string &path) const
{
    std::ofstream os(path);
    if (!os) {
        return false;
    }
    for (std::size_t c = 0; c < columns_.size(); ++c) {
        os << (c == 0 ? "" : ",") << columns_[c];
    }
    os << "\n";
    for (std::size_t r = 0; r < rows(); ++r) {
        for (std::size_t c = 0; c < columns_.size(); ++c) {
            os << (c == 0 ? "" : ",") << format_value(at(r, c));
        }
        os << "\n";
    }
    os.flush();
    return static_cast<bool>(os);
}

bool
Timeseries::write_jsonl(const std::string &path) const
{
    std::ofstream os(path);
    if (!os) {
        return false;
    }
    for (std::size_t r = 0; r < rows(); ++r) {
        os << "{";
        for (std::size_t c = 0; c < columns_.size(); ++c) {
            os << (c == 0 ? "" : ",") << "\"" << Tracer::escape(columns_[c])
               << "\":" << format_value(at(r, c));
        }
        os << "}\n";
    }
    os.flush();
    return static_cast<bool>(os);
}

EpochSampler::EpochSampler(std::uint64_t cadence, SampleFn fn)
    : cadence_(cadence), next_(cadence), fn_(std::move(fn))
{
    SIM_REQUIRE(cadence_ > 0, "epoch-sampler cadence must be positive");
    SIM_REQUIRE(fn_ != nullptr, "epoch sampler needs a callback");
}

MachineSampler::MachineSampler(const Machine *machine, Timeseries *out,
                               Tracer *tracer, std::uint32_t pid)
    : machine_(machine), out_(out), tracer_(tracer), pid_(pid)
{
    SIM_REQUIRE(machine_ != nullptr && out_ != nullptr,
                "machine sampler needs a machine and a buffer");
    // Baseline so the first sample reports the first epoch's deltas,
    // not cumulative-since-construction values.
    for (std::size_t i = 0; i < machine_->num_cores(); ++i) {
        last_.push_back(machine_->metrics(i));
        const PageCrossFilter *f = machine_->core(i).filter();
        last_filter_.push_back(f != nullptr ? f->telemetry()
                                            : FilterTelemetry{});
    }
}

void
MachineSampler::sample_now()
{
    sample(machine_->steps());
}

void
MachineSampler::sample(std::uint64_t steps)
{
    std::vector<TimeseriesCell> row;
    row.emplace_back("epoch", static_cast<double>(sample_index_));
    row.emplace_back("steps", static_cast<double>(steps));

    const std::uint64_t ts = tracer_ != nullptr ? tracer_->now_us() : 0;

    for (std::size_t i = 0; i < machine_->num_cores(); ++i) {
        char p[32];
        std::snprintf(p, sizeof(p), "c%zu.", i);
        const std::string prefix(p);

        const RunMetrics now = machine_->metrics(i);
        const RunMetrics d = now - last_[i];
        last_[i] = now;

        row.emplace_back(prefix + "insts", double(d.instructions));
        row.emplace_back(prefix + "ipc", d.ipc());
        row.emplace_back(prefix + "l1d_mpki", d.l1d_mpki());
        row.emplace_back(prefix + "llc_mpki", d.llc_mpki());
        row.emplace_back(prefix + "stlb_mpki", d.stlb_mpki());
        row.emplace_back(prefix + "walk_mpki", d.walk_mpki());
        row.emplace_back(prefix + "l1d_writebacks",
                         double(d.l1d_writebacks));
        row.emplace_back(prefix + "l1d_pf_lookups",
                         double(d.l1d_pf_lookups));
        row.emplace_back(prefix + "pgc_candidates",
                         double(d.pgc_candidates));
        row.emplace_back(prefix + "pgc_issued", double(d.pgc_issued));
        row.emplace_back(prefix + "pgc_useful", double(d.pgc_useful));
        row.emplace_back(prefix + "pgc_useless", double(d.pgc_useless));
        row.emplace_back(prefix + "pgc_dropped", double(d.pgc_dropped));
        const double pgc_acc = d.pgc_accuracy();
        row.emplace_back(prefix + "pgc_accuracy", pgc_acc);

        const PageCrossFilter *f = machine_->core(i).filter();
        const FilterTelemetry ft =
            f != nullptr ? f->telemetry() : FilterTelemetry{};
        if (ft.valid) {
            const FilterTelemetry &prev = last_filter_[i];
            row.emplace_back(prefix + "t_a", double(ft.t_a));
            row.emplace_back(prefix + "ta_level", double(ft.level));
            row.emplace_back(prefix + "pgc_disabled",
                             ft.pgc_disabled ? 1.0 : 0.0);
            const std::uint64_t decisions = ft.decisions - prev.decisions;
            row.emplace_back(prefix + "decisions", double(decisions));
            row.emplace_back(prefix + "permits",
                             double(ft.permits - prev.permits));
            row.emplace_back(prefix + "vub_rewards",
                             double(ft.vub_rewards - prev.vub_rewards));
            row.emplace_back(prefix + "pub_rewards",
                             double(ft.pub_rewards - prev.pub_rewards));
            row.emplace_back(prefix + "pub_punishes",
                             double(ft.pub_punishes - prev.pub_punishes));
            const std::int64_t sum_d = ft.sum_total - prev.sum_total;
            row.emplace_back(prefix + "sum_mean",
                             decisions == 0
                                 ? 0.0
                                 : double(sum_d) / double(decisions));
            for (std::size_t b = 0; b < FilterTelemetry::kSumBuckets;
                 ++b) {
                const std::string bound =
                    b + 1 < FilterTelemetry::kSumBuckets
                        ? std::to_string(FilterTelemetry::kSumBounds[b])
                        : "inf";
                row.emplace_back(
                    prefix + "sum_le_" + bound,
                    double(ft.sum_hist[b] - prev.sum_hist[b]));
            }
            for (std::size_t j = 0; j < ft.num_features; ++j) {
                const std::uint64_t abs_d =
                    ft.feature_abs[j] - prev.feature_abs[j];
                row.emplace_back(
                    prefix + "f" + std::to_string(j) + "_mean_abs_w",
                    decisions == 0 ? 0.0
                                   : double(abs_d) / double(decisions));
            }
            for_each_leaf(
                [&](const char *name, std::uint64_t now_v,
                    std::uint64_t prev_v) {
                    row.emplace_back(prefix + "th_" + name,
                                     double(now_v - prev_v));
                },
                ft.threshold, prev.threshold);
            last_filter_[i] = ft;

            if (tracer_ != nullptr) {
                tracer_->counter(pid_, std::uint32_t(i), prefix + "T_a",
                                 ts, "T_a", double(ft.t_a));
            }
        }
        if (tracer_ != nullptr) {
            tracer_->counter(pid_, std::uint32_t(i), prefix + "pgc_acc",
                             ts, "acc", pgc_acc);
            tracer_->counter(pid_, std::uint32_t(i), prefix + "ipc", ts,
                             "ipc", d.ipc());
        }
    }

    out_->append(row);
    ++sample_index_;
}

ScopedRunTelemetry::ScopedRunTelemetry(TelemetrySession *session,
                                       const Machine *machine,
                                       const std::string &label,
                                       std::uint32_t pid)
    : session_(session), label_(label), pid_(pid)
{
    if (session_ == nullptr || !session_->active() ||
        !telemetry_enabled() || machine == nullptr) {
        return;
    }
    sampler_ = std::make_unique<MachineSampler>(
        machine, &series_, session_->tracer(), pid_);
    // One sample per (per-core) adaptive epoch: the machine steps one
    // instruction on one core at a time, so the per-machine cadence
    // is epoch_insts scaled by the core count.
    const std::uint64_t cadence =
        machine->config().epoch_insts *
        std::max<std::uint64_t>(1, machine->num_cores());
    epoch_hook_ = std::make_unique<EpochSampler>(
        cadence, [this](std::uint64_t steps) { sampler_->sample(steps); });
}

ScopedRunTelemetry::~ScopedRunTelemetry()
{
    if (sampler_ == nullptr) {
        return;
    }
    // Final partial-epoch sample so short runs still produce rows.
    sampler_->sample_now();
    if (!session_->dir().empty()) {
        const std::string base = session_->dir() + "/" +
                                 TelemetrySession::sanitize_label(label_);
        series_.write_csv(base + ".epochs.csv");
        series_.write_jsonl(base + ".epochs.jsonl");
    }
}

RunTickHook *
ScopedRunTelemetry::hook(RunTickHook *inner)
{
    if (epoch_hook_ == nullptr) {
        return inner;
    }
    chain_.add(inner);
    chain_.add(epoch_hook_.get());
    return chain_.as_hook();
}

void
ScopedRunTelemetry::span(const char *name, const std::function<void()> &body)
{
    Tracer *tracer =
        session_ != nullptr && session_->active() ? session_->tracer()
                                                  : nullptr;
    TraceSpan s(tracer, pid_, 0, name);
    body();
}

}  // namespace moka
