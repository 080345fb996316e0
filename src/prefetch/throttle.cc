#include "prefetch/throttle.h"
#include "snapshot/snapshot.h"

#include <algorithm>

namespace moka {

ThrottledPrefetcher::ThrottledPrefetcher(PrefetcherPtr inner,
                                         const ThrottleConfig &config)
    : inner_(std::move(inner)), cfg_(config),
      level_(std::clamp(config.initial_level, 1u, config.levels)),
      name_("fdp+" + inner_->name())
{
}

void
ThrottledPrefetcher::on_access(const PrefetchContext &ctx,
                               std::vector<PrefetchRequest> &out)
{
    scratch_.clear();
    inner_->on_access(ctx, scratch_);
    // Level k forwards at most k candidates per trigger; the inner
    // prefetcher emits its candidates in priority order.
    const std::size_t cap = level_;
    for (std::size_t i = 0; i < scratch_.size() && i < cap; ++i) {
        out.push_back(scratch_[i]);
    }
}

void
ThrottledPrefetcher::on_fill(VirtAddr vaddr, Cycle now, bool was_prefetch)
{
    inner_->on_fill(vaddr, now, was_prefetch);
    if (was_prefetch && ++window_fills_ >= cfg_.interval_fills) {
        end_interval();
    }
}

void
ThrottledPrefetcher::on_feedback(bool useful, bool late)
{
    if (useful) {
        ++window_useful_;
    } else {
        ++window_useless_;
    }
    if (late) {
        ++window_late_;
    }
}

void
ThrottledPrefetcher::end_interval()
{
    const std::uint64_t resolved = window_useful_ + window_useless_;
    if (resolved >= 16) {
        const double acc =
            static_cast<double>(window_useful_) /
            static_cast<double>(resolved);
        const double late_frac =
            static_cast<double>(window_late_) /
            static_cast<double>(resolved);
        // FDP policy: accurate-and-late -> more aggressive; accurate
        // and timely -> hold; inaccurate -> less aggressive.
        if (acc >= cfg_.acc_high && late_frac >= cfg_.late_high) {
            level_ = std::min(level_ + 1, cfg_.levels);
        } else if (acc < cfg_.acc_low) {
            level_ = std::max(level_ - 1, 1u);
        }
    }
    window_useful_ = 0;
    window_useless_ = 0;
    window_late_ = 0;
    window_fills_ = 0;
}

template <class Self, class IO>
void
ThrottledPrefetcher::serialize(Self &self, IO &io)
{
    io.begin_section("pf.throttle");
    field(io, self.level_);
    field(io, self.window_useful_);
    field(io, self.window_useless_);
    field(io, self.window_late_);
    field(io, self.window_fills_);
    field(io, *self.inner_);
}

template void ThrottledPrefetcher::serialize(const ThrottledPrefetcher &,
                                             SnapshotWriter &);
template void ThrottledPrefetcher::serialize(ThrottledPrefetcher &,
                                             SnapshotReader &);

}  // namespace moka
