#include "prefetch/bop.h"
#include "snapshot/snapshot.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/check.h"
#include "common/hashing.h"

namespace moka {

Bop::Bop(const BopConfig &config)
    : cfg_(config), rr_mask_(config.rr_entries - 1),
      rr_(config.rr_entries, 0), scores_(config.offsets.size(), 0)
{
    SIM_REQUIRE(is_pow2(config.rr_entries),
                "BOP recent-request entries must be a power of two");
}

std::size_t
Bop::rr_index(Addr line) const
{
    return mix64(line) & rr_mask_;
}

bool
Bop::rr_contains(Addr line) const
{
    return rr_[rr_index(line)] == line;
}

void
Bop::rr_insert(Addr line)
{
    rr_[rr_index(line)] = line;
}

void
Bop::end_phase()
{
    const auto it = std::max_element(scores_.begin(), scores_.end());
    const int best_score = *it;
    best_ = cfg_.offsets[static_cast<std::size_t>(
        std::distance(scores_.begin(), it))];
    active_ = best_score >= cfg_.bad_score;
    std::fill(scores_.begin(), scores_.end(), 0);
    round_ = 0;
    test_index_ = 0;
}

void
Bop::on_fill(VirtAddr vaddr, Cycle /*now*/, bool was_prefetch)
{
    // Fill-time insertion is what makes BOP timeliness-aware: offset
    // d only scores if the fill of X-d completed before X was
    // accessed. Prefetch fills of line Y with offset D record Y - D
    // ("Y - D was a good trigger for Y"); demand fills record the
    // line itself.
    const Addr line = block_number(vaddr);
    if (was_prefetch) {
        if (active_ && static_cast<std::int64_t>(line) > best_) {
            rr_insert(static_cast<Addr>(
                static_cast<std::int64_t>(line) - best_));
        }
    } else {
        rr_insert(line);
    }
}

void
Bop::on_access(const PrefetchContext &ctx,
               std::vector<PrefetchRequest> &out)
{
    const Addr line = block_number(ctx.vaddr);

    // Learning: test one offset per (miss or first-touch) event.
    if (!ctx.hit) {
        const std::int64_t d = cfg_.offsets[test_index_];
        const std::int64_t base = static_cast<std::int64_t>(line) - d;
        if (base > 0 && rr_contains(static_cast<Addr>(base))) {
            if (++scores_[test_index_] >= cfg_.score_max) {
                end_phase();
            }
        }
        if (test_index_ + 1 >= cfg_.offsets.size()) {
            test_index_ = 0;
            if (++round_ >= cfg_.round_max) {
                end_phase();
            }
        } else {
            ++test_index_;
        }
    }

    if (!active_) {
        return;
    }
    const std::int64_t target = static_cast<std::int64_t>(line) + best_;
    if (target <= 0) {
        return;
    }
    PrefetchRequest req;
    req.vaddr = VirtAddr{static_cast<Addr>(target) << kBlockBits};
    req.delta = best_;
    req.trigger_pc = ctx.pc;
    req.trigger_vaddr = ctx.vaddr;
    req.meta = static_cast<std::uint64_t>(
        scores_.empty() ? 0 : *std::max_element(scores_.begin(),
                                                scores_.end()));
    out.push_back(req);
}

template <class Self, class IO>
void
Bop::serialize(Self &self, IO &io)
{
    io.begin_section("pf.bop");
    field(io, self.rr_);
    for (auto &s : self.scores_) {
        field_as<std::int64_t>(io, s);
    }
    field(io, self.test_index_);
    require(io, self.test_index_ < self.cfg_.offsets.size(),
            "bop test index past the offset list");
    field_as<std::int64_t>(io, self.round_);
    field(io, self.best_);
    field(io, self.active_);
}

template void Bop::serialize(const Bop &, SnapshotWriter &);
template void Bop::serialize(Bop &, SnapshotReader &);

}  // namespace moka
