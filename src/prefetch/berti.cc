#include "prefetch/berti.h"

#include <algorithm>
#include <cstdlib>

#include "common/hashing.h"
#include "snapshot/snapshot.h"

namespace moka {

Berti::Berti(const BertiConfig &config)
    : cfg_(config), ips_(config.ip_entries),
      ip_tags_(config.ip_entries, 0), ip_valid_(config.ip_entries, 0),
      ip_lru_(config.ip_entries, 0)
{
    // All per-IP vectors are bounded by configuration; reserving at
    // construction keeps train/select allocation free (rule L10).
    for (IpEntry &e : ips_) {
        e.history.resize(cfg_.history_per_ip);
        e.delta_vals.reserve(cfg_.deltas_per_ip);
        e.delta_occ.reserve(cfg_.deltas_per_ip);
        e.delta_timely.reserve(cfg_.deltas_per_ip);
        e.selected.reserve(cfg_.max_degree);
        e.selected_timely.reserve(cfg_.max_degree);
    }
    sort_scratch_.reserve(cfg_.deltas_per_ip);
}

Berti::IpEntry &
Berti::lookup_ip(Addr pc)
{
    const Addr tag = mix64(pc);
    const std::size_t n = ips_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (ip_valid_[i] != 0 && ip_tags_[i] == tag) {
            ip_lru_[i] = ++lru_stamp_;
            return ips_[i];
        }
    }
    // Allocate the first invalid slot, else the LRU victim.
    std::size_t victim = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (ip_valid_[i] == 0) {
            victim = i;
            break;
        }
        if (ip_lru_[i] < ip_lru_[victim]) {
            victim = i;
        }
    }
    ip_valid_[victim] = 1;
    ip_tags_[victim] = tag;
    ip_lru_[victim] = ++lru_stamp_;
    IpEntry &e = ips_[victim];
    e.history.assign(cfg_.history_per_ip, {});
    e.history_head = 0;
    e.delta_vals.clear();
    e.delta_occ.clear();
    e.delta_timely.clear();
    e.selected.clear();
    e.selected_timely.clear();
    e.window_count = 0;
    return e;
}

void
Berti::train(IpEntry &e, Addr line, Cycle now)
{
    constexpr std::size_t kNoSlot = ~std::size_t{0};
    // Compare against the shadow history: a delta is timely when a
    // prefetch launched at the historical access would have completed
    // by now.
    for (const HistoryItem &h : e.history) {
        if (h.cycle == 0 || h.line == line) {
            continue;
        }
        const std::int64_t delta =
            static_cast<std::int64_t>(line) - static_cast<std::int64_t>(h.line);
        if (delta == 0 || std::llabs(delta) > cfg_.max_delta) {
            continue;
        }
        const bool timely = h.cycle + cfg_.timely_latency <= now;
        const std::int64_t *vals = e.delta_vals.data();
        const std::size_t n = e.delta_vals.size();
        std::size_t slot = kNoSlot;
        for (std::size_t i = 0; i < n; ++i) {
            if (vals[i] == delta) {
                slot = i;
                break;
            }
        }
        if (slot == kNoSlot) {
            if (n < cfg_.deltas_per_ip) {
                slot = n;
                e.delta_vals.push_back(delta);
                e.delta_occ.push_back(0);
                e.delta_timely.push_back(0);
            } else {
                // Replace the weakest candidate (first strict minimum
                // of the timely counts, matching min_element).
                std::size_t weakest = 0;
                for (std::size_t i = 1; i < n; ++i) {
                    if (e.delta_timely[i] < e.delta_timely[weakest]) {
                        weakest = i;
                    }
                }
                if (e.delta_timely[weakest] <= 2) {
                    slot = weakest;
                    e.delta_vals[slot] = delta;
                    e.delta_occ[slot] = 0;
                    e.delta_timely[slot] = 0;
                }  // else keep established deltas
            }
        }
        if (slot != kNoSlot) {
            ++e.delta_occ[slot];
            if (timely) {
                ++e.delta_timely[slot];
            }
        }
    }

    e.history[e.history_head] = {line, now};
    // Compare-wrap instead of % — the depth is a runtime config value,
    // so the compiler cannot strength-reduce the modulo (rule L19).
    if (++e.history_head == cfg_.history_per_ip) {
        e.history_head = 0;
    }
}

void
Berti::select_deltas(IpEntry &e)
{
    e.selected.clear();
    e.selected_timely.clear();
    // Member scratch (reserved to deltas_per_ip in the constructor)
    // instead of a per-window local copy, which allocated every
    // window_accesses-th access (rule L10).
    std::vector<DeltaCounter> &sorted = sort_scratch_;
    sorted.clear();
    for (std::size_t i = 0; i < e.delta_vals.size(); ++i) {
        // LINT_HOT_OK: aliases sort_scratch_, reserved to
        // deltas_per_ip in the constructor -- never reallocates.
        sorted.push_back(
            {e.delta_vals[i], e.delta_occ[i], e.delta_timely[i]});
    }
    std::sort(sorted.begin(), sorted.end(),
              [](const DeltaCounter &a, const DeltaCounter &b) {
                  if (a.timely != b.timely) {
                      return a.timely > b.timely;
                  }
                  // Tie-break towards larger deltas: more lead time,
                  // better timeliness for the issued prefetches.
                  return std::llabs(a.delta) > std::llabs(b.delta);
              });
    const double window = static_cast<double>(cfg_.window_accesses);
    for (const DeltaCounter &d : sorted) {
        if (e.selected.size() >= cfg_.max_degree) {
            break;
        }
        if (static_cast<double>(d.timely) >=
            cfg_.coverage_threshold * window) {
            e.selected.push_back(d.delta);
            e.selected_timely.push_back(d.timely);
        }
    }
    std::fill(e.delta_occ.begin(), e.delta_occ.end(),
              static_cast<std::uint16_t>(0));
    std::fill(e.delta_timely.begin(), e.delta_timely.end(),
              static_cast<std::uint16_t>(0));
}

void
Berti::on_access(const PrefetchContext &ctx,
                 std::vector<PrefetchRequest> &out)
{
    IpEntry &e = lookup_ip(ctx.pc);
    const Addr line = block_number(ctx.vaddr);

    train(e, line, ctx.now);
    if (++e.window_count >= cfg_.window_accesses) {
        e.window_count = 0;
        select_deltas(e);
    }

    for (std::size_t i = 0; i < e.selected.size(); ++i) {
        const std::int64_t delta = e.selected[i];
        const std::int64_t target =
            static_cast<std::int64_t>(line) + delta;
        if (target <= 0) {
            continue;
        }
        PrefetchRequest req;
        req.vaddr = VirtAddr{static_cast<Addr>(target) << kBlockBits};
        req.delta = delta;
        req.trigger_pc = ctx.pc;
        req.trigger_vaddr = ctx.vaddr;
        req.meta = e.selected_timely[i];  // timeliness confidence
        out.push_back(req);
    }
}

template <class Self, class IO>
void
Berti::serialize(Self &self, IO &io)
{
    io.begin_section("pf.berti");
    for (std::size_t i = 0; i < self.ips_.size(); ++i) {
        auto &e = self.ips_[i];
        field(io, self.ip_tags_[i]);
        field_as<bool>(io, self.ip_valid_[i]);
        field(io, self.ip_lru_[i]);
        for (auto &h : e.history) {
            field(io, h.line);
            field(io, h.cycle);
        }
        field(io, e.history_head);
        require(io, e.history_head < e.history.size(),
                "berti history head past the history");
        list_length<std::uint32_t>(io, self.cfg_.deltas_per_ip,
                                   "berti delta count above capacity",
                                   e.delta_vals, e.delta_occ,
                                   e.delta_timely);
        for (std::size_t d = 0; d < e.delta_vals.size(); ++d) {
            field(io, e.delta_vals[d]);
            field(io, e.delta_occ[d]);
            field(io, e.delta_timely[d]);
        }
        list_length<std::uint32_t>(io, self.cfg_.max_degree,
                                   "berti selection count above capacity",
                                   e.selected, e.selected_timely);
        for (std::size_t s = 0; s < e.selected.size(); ++s) {
            field(io, e.selected[s]);
            field(io, e.selected_timely[s]);
        }
        field(io, e.window_count);
    }
    field(io, self.lru_stamp_);
}

template void Berti::serialize(const Berti &, SnapshotWriter &);
template void Berti::serialize(Berti &, SnapshotReader &);

}  // namespace moka
