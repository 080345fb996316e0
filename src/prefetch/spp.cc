#include "prefetch/spp.h"
#include "snapshot/snapshot.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/check.h"
#include "common/hashing.h"

namespace moka {

Spp::Spp(const SppConfig &config)
    : cfg_(config), st_mask_(config.st_entries - 1),
      pt_mask_(config.pt_entries - 1), st_(config.st_entries),
      pt_(config.pt_entries)
{
    SIM_REQUIRE(is_pow2(config.st_entries),
                "SPP signature-table entries must be a power of two");
    SIM_REQUIRE(is_pow2(config.pt_entries),
                "SPP pattern-table entries must be a power of two");
    for (PtEntry &e : pt_) {
        e.slots.resize(cfg_.deltas_per_sig);
    }
}

std::uint16_t
Spp::advance_sig(std::uint16_t sig, std::int32_t delta)
{
    return static_cast<std::uint16_t>(((sig << 3) ^ (delta & 0x7F)) & 0xFFF);
}

void
Spp::on_access(const PrefetchContext &ctx,
               std::vector<PrefetchRequest> &out)
{
    const Addr page = page_index(ctx.vaddr);
    const std::int32_t offset =
        static_cast<std::int32_t>(line_in_page(ctx.vaddr) & (kBlocksPerPage - 1));

    // --- Signature table lookup (set = hashed page) -------------------
    StEntry &e = st_[mix64(page) & st_mask_];
    std::uint16_t sig = 0;
    if (e.valid && e.page_tag == page) {
        const std::int32_t delta = offset - e.last_offset;
        if (delta != 0) {
            // Train the pattern table for the *previous* signature.
            PtEntry &p = pt_[e.signature & pt_mask_];
            DeltaSlot *slot = nullptr;
            for (DeltaSlot &s : p.slots) {
                if (s.delta == delta && s.count > 0) {
                    slot = &s;
                    break;
                }
            }
            if (slot == nullptr) {
                slot = &*std::min_element(
                    p.slots.begin(), p.slots.end(),
                    [](const DeltaSlot &a, const DeltaSlot &b) {
                        return a.count < b.count;
                    });
                slot->delta = delta;
                slot->count = 0;
            }
            ++slot->count;
            ++p.total;
            if (p.total >= 1024) {  // periodic decay
                for (DeltaSlot &s : p.slots) {
                    s.count = static_cast<std::uint16_t>(s.count / 2);
                }
                p.total /= 2;
            }
            e.signature = advance_sig(e.signature, delta);
            e.last_offset = offset;
        }
        sig = e.signature;
    } else {
        e.valid = true;
        e.page_tag = page;
        e.last_offset = offset;
        e.signature = static_cast<std::uint16_t>(offset & 0x3F);
        e.lru = ++lru_stamp_;
        return;  // no prediction on a fresh page
    }

    // --- Lookahead along the signature path ---------------------------
    double conf = 1.0;
    std::int32_t cur = offset;
    std::uint16_t s = sig;
    for (unsigned depth = 0; depth < cfg_.max_depth; ++depth) {
        const PtEntry &p = pt_[s & pt_mask_];
        const DeltaSlot *best = nullptr;
        for (const DeltaSlot &slot : p.slots) {
            if (slot.count > 0 &&
                (best == nullptr || slot.count > best->count)) {
                best = &slot;
            }
        }
        if (best == nullptr || p.total == 0) {
            break;
        }
        conf *= static_cast<double>(best->count) /
                static_cast<double>(p.total);
        if (conf < cfg_.pf_threshold) {
            break;
        }
        cur += best->delta;
        if (cur < 0 || cur >= static_cast<std::int32_t>(kBlocksPerPage)) {
            break;  // physical page boundary: stop (PIPT safety)
        }
        PrefetchRequest req;
        req.vaddr = page_addr(ctx.vaddr) +
                    (static_cast<Addr>(cur) << kBlockBits);
        req.delta = best->delta;
        req.trigger_pc = ctx.pc;
        req.trigger_vaddr = ctx.vaddr;
        out.push_back(req);
        s = advance_sig(s, best->delta);
    }
}

template <class Self, class IO>
void
Spp::serialize(Self &self, IO &io)
{
    io.begin_section("pf.spp");
    for (auto &e : self.st_) {
        field(io, e.page_tag);
        field(io, e.valid);
        field_as<std::int64_t>(io, e.last_offset);
        field(io, e.signature);
        field(io, e.lru);
    }
    for (auto &e : self.pt_) {
        list_length<std::uint32_t>(io, self.cfg_.deltas_per_sig,
                                   "spp slot count above capacity",
                                   e.slots);
        for (auto &s : e.slots) {
            field_as<std::int64_t>(io, s.delta);
            field(io, s.count);
        }
        field(io, e.total);
    }
    field(io, self.lru_stamp_);
}

template void Spp::serialize(const Spp &, SnapshotWriter &);
template void Spp::serialize(Spp &, SnapshotReader &);

}  // namespace moka
