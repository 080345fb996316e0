#include "prefetch/berti.h"

#include <algorithm>
#include <cstdlib>

#include "common/check.h"
#include "common/hashing.h"
#include "snapshot/snapshot.h"

namespace moka {

Berti::Berti(const BertiConfig &config)
    : cfg_(config), ips_(config.ip_entries),
      ip_tags_(config.ip_entries, 0), ip_valid_(config.ip_entries, 0),
      ip_lru_(config.ip_entries, 0),
      history_(std::size_t{config.ip_entries} * config.history_per_ip),
      delta_vals_(std::size_t{config.ip_entries} * config.deltas_per_ip),
      delta_occ_(delta_vals_.size()), delta_timely_(delta_vals_.size()),
      slot_width_(2 * static_cast<std::size_t>(config.max_delta) + 1),
      delta_slot_(std::size_t{config.ip_entries} * slot_width_, kNoSlot),
      selected_(std::size_t{config.ip_entries} * config.max_degree),
      selected_timely_(selected_.size()), sort_scratch_(config.deltas_per_ip)
{
    // delta_slot_ holds each slot as an int8.
    SIM_REQUIRE(config.deltas_per_ip <= 127,
                "berti tracks at most 127 candidate deltas per IP");
}

std::size_t
Berti::lookup_ip(Addr pc)
{
    const Addr tag = mix64(pc);
    const std::size_t n = ips_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (ip_valid_[i] != 0 && ip_tags_[i] == tag) {
            ip_lru_[i] = ++lru_stamp_;
            return i;
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
    HistoryItem *history = history_.data() + victim * cfg_.history_per_ip;
    std::fill(history, history + cfg_.history_per_ip, HistoryItem{});
    std::fill_n(delta_slot_.data() + victim * slot_width_, slot_width_,
                kNoSlot);
    ips_[victim] = IpEntry{};
    return victim;
}

void
Berti::train(std::size_t ip, Addr line, Cycle now)
{
    IpEntry &e = ips_[ip];
    HistoryItem *history = history_.data() + ip * cfg_.history_per_ip;
    const std::size_t base = ip * cfg_.deltas_per_ip;
    std::int64_t *vals = delta_vals_.data() + base;
    std::uint16_t *occ = delta_occ_.data() + base;
    std::uint16_t *timely_count = delta_timely_.data() + base;
    std::int8_t *slots = slot_row(ip);
    // Compare against the shadow history: a delta is timely when a
    // prefetch launched at the historical access would have completed
    // by now.
    for (unsigned k = 0; k < cfg_.history_per_ip; ++k) {
        const HistoryItem &h = history[k];
        if (h.cycle == 0 || h.line == line) {
            continue;
        }
        const std::int64_t delta =
            static_cast<std::int64_t>(line) - static_cast<std::int64_t>(h.line);
        if (delta == 0 || std::llabs(delta) > cfg_.max_delta) {
            continue;
        }
        const bool timely = h.cycle + cfg_.timely_latency <= now;
        const std::size_t n = e.delta_count;
        int slot = slots[delta];
        if (slot == kNoSlot) {
            if (n < cfg_.deltas_per_ip) {
                slot = static_cast<int>(n);
                ++e.delta_count;
                vals[slot] = delta;
                occ[slot] = 0;
                timely_count[slot] = 0;
                slots[delta] = static_cast<std::int8_t>(slot);
            } else {
                // Replace the weakest candidate (first strict minimum
                // of the timely counts, matching min_element).
                std::size_t weakest = 0;
                for (std::size_t i = 1; i < n; ++i) {
                    if (timely_count[i] < timely_count[weakest]) {
                        weakest = i;
                    }
                }
                if (timely_count[weakest] <= 2) {
                    slot = static_cast<int>(weakest);
                    slots[vals[slot]] = kNoSlot;
                    vals[slot] = delta;
                    occ[slot] = 0;
                    timely_count[slot] = 0;
                    slots[delta] = static_cast<std::int8_t>(slot);
                }  // else keep established deltas
            }
        }
        if (slot != kNoSlot) {
            ++occ[slot];
            if (timely) {
                ++timely_count[slot];
            }
        }
    }

    history[e.history_head] = {line, now};
    // Compare-wrap instead of % — the depth is a runtime config value,
    // so the compiler cannot strength-reduce the modulo (rule L19).
    if (++e.history_head == cfg_.history_per_ip) {
        e.history_head = 0;
    }
}

void
Berti::select_deltas(std::size_t ip)
{
    IpEntry &e = ips_[ip];
    const std::size_t base = ip * cfg_.deltas_per_ip;
    const std::size_t n = e.delta_count;
    DeltaCounter *sorted = sort_scratch_.data();
    for (std::size_t i = 0; i < n; ++i) {
        sorted[i] = {delta_vals_[base + i], delta_occ_[base + i],
                     delta_timely_[base + i]};
    }
    std::sort(sorted, sorted + n,
              [](const DeltaCounter &a, const DeltaCounter &b) {
                  if (a.timely != b.timely) {
                      return a.timely > b.timely;
                  }
                  // Tie-break towards larger deltas: more lead time,
                  // better timeliness for the issued prefetches.
                  return std::llabs(a.delta) > std::llabs(b.delta);
              });
    const double window = static_cast<double>(cfg_.window_accesses);
    const std::size_t out = ip * cfg_.max_degree;
    e.selected_count = 0;
    for (std::size_t i = 0; i < n && e.selected_count < cfg_.max_degree;
         ++i) {
        if (static_cast<double>(sorted[i].timely) >=
            cfg_.coverage_threshold * window) {
            selected_[out + e.selected_count] = sorted[i].delta;
            selected_timely_[out + e.selected_count] = sorted[i].timely;
            ++e.selected_count;
        }
    }
    std::fill_n(delta_occ_.data() + base, n, std::uint16_t{0});
    std::fill_n(delta_timely_.data() + base, n, std::uint16_t{0});
}

void
Berti::on_access(const PrefetchContext &ctx,
                 std::vector<PrefetchRequest> &out)
{
    const std::size_t ip = lookup_ip(ctx.pc);
    IpEntry &e = ips_[ip];
    const Addr line = block_number(ctx.vaddr);

    train(ip, line, ctx.now);
    if (++e.window_count >= cfg_.window_accesses) {
        e.window_count = 0;
        select_deltas(ip);
    }

    const std::size_t first = ip * cfg_.max_degree;
    for (std::size_t i = first; i < first + e.selected_count; ++i) {
        const std::int64_t delta = selected_[i];
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
        req.meta = selected_timely_[i];  // timeliness confidence
        out.push_back(req);
    }
}

template <class Self, class IO>
void
Berti::serialize(Self &self, IO &io)
{
    io.begin_section("pf.berti");
    const BertiConfig &cfg = self.cfg_;
    for (std::size_t i = 0; i < self.ips_.size(); ++i) {
        auto &e = self.ips_[i];
        field(io, self.ip_tags_[i]);
        field_as<bool>(io, self.ip_valid_[i]);
        field(io, self.ip_lru_[i]);
        for (std::size_t h = i * cfg.history_per_ip;
             h < (i + 1) * cfg.history_per_ip; ++h) {
            field(io, self.history_[h].line);
            field(io, self.history_[h].cycle);
        }
        field(io, e.history_head);
        require(io, e.history_head < cfg.history_per_ip,
                "berti history head past the history");
        field(io, e.delta_count);
        require(io, e.delta_count <= cfg.deltas_per_ip,
                "berti delta count above capacity");
        if constexpr (kRestoring<IO>) {
            std::fill_n(self.delta_slot_.data() + i * self.slot_width_,
                        self.slot_width_, kNoSlot);
        }
        for (std::size_t d = 0; d < e.delta_count; ++d) {
            const std::size_t at = i * cfg.deltas_per_ip + d;
            field(io, self.delta_vals_[at]);
            field(io, self.delta_occ_[at]);
            field(io, self.delta_timely_[at]);
            if constexpr (kRestoring<IO>) {
                // The slot index rebuilt from the candidates bounds
                // each delta to its row and holds one slot per delta.
                const std::int64_t delta = self.delta_vals_[at];
                require(io,
                        delta != 0 && delta >= -cfg.max_delta &&
                            delta <= cfg.max_delta,
                        "berti delta outside +-max_delta");
                std::int8_t &slot = self.slot_row(i)[delta];
                require(io, slot == kNoSlot,
                        "berti delta repeated within its entry");
                slot = static_cast<std::int8_t>(d);
            }
        }
        field(io, e.selected_count);
        require(io, e.selected_count <= cfg.max_degree,
                "berti selection count above capacity");
        for (std::size_t s = i * cfg.max_degree;
             s < i * cfg.max_degree + e.selected_count; ++s) {
            field(io, self.selected_[s]);
            field(io, self.selected_timely_[s]);
        }
        field(io, e.window_count);
    }
    field(io, self.lru_stamp_);
}

template void Berti::serialize(const Berti &, SnapshotWriter &);
template void Berti::serialize(Berti &, SnapshotReader &);

}  // namespace moka
