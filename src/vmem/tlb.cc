#include "vmem/tlb.h"

#include "common/bitops.h"
#include "common/check.h"
#include "snapshot/snapshot.h"

namespace moka {

Tlb::Tlb(const TlbConfig &config)
    : cfg_(config),
      small_(static_cast<std::size_t>(config.sets) * config.ways),
      large_(static_cast<std::size_t>(config.large_sets) *
             config.large_ways)
{
    SIM_REQUIRE(is_pow2(cfg_.sets) && is_pow2(cfg_.large_sets),
                "TLB sets must be powers of two");
}

std::size_t
Tlb::find(const EntryArray &arr, std::uint32_t sets, std::uint32_t ways,
          Addr vpn) const
{
    const Addr key = vpn | kValidVpnBit;
    const std::size_t base =
        static_cast<std::size_t>(vpn & (sets - 1)) * ways;
    const Addr *row = &arr.vpn[base];
    for (std::uint32_t w = 0; w < ways; ++w) {
        if (row[w] == key) {
            return base + w;
        }
    }
    return kNoSlot;
}

void
Tlb::install(EntryArray &arr, std::uint32_t sets, std::uint32_t ways,
             Addr vpn, Addr page_base)
{
    const std::size_t base =
        static_cast<std::size_t>(vpn & (sets - 1)) * ways;
    std::size_t victim = base;
    for (std::uint32_t w = 0; w < ways; ++w) {
        if ((arr.vpn[base + w] & kValidVpnBit) == 0) {
            victim = base + w;
            break;
        }
        if (arr.lru[base + w] < arr.lru[victim]) {
            victim = base + w;
        }
    }
    arr.vpn[victim] = vpn | kValidVpnBit;
    arr.page_base[victim] = page_base;
    arr.lru[victim] = ++lru_stamp_;
}

Tlb::Result
Tlb::lookup(VirtAddr vaddr, Cycle now, bool demand)
{
    AccessStats &st = demand ? demand_ : probe_;
    ++st.accesses;

    Result r;
    r.done = now + cfg_.latency;

    // Entries store raw VPN/page-base bits; the TLB is a whitelisted
    // translation seam (rule L18) so the unwrap happens here, once.
    if (const std::size_t slot = find(small_, cfg_.sets, cfg_.ways,
                                      page_number(vaddr.raw()));
        slot != kNoSlot) {
        small_.lru[slot] = ++lru_stamp_;
        r.hit = true;
        r.page_base = PhysAddr{small_.page_base[slot]};
        r.large = false;
        return r;
    }
    if (const std::size_t slot =
            find(large_, cfg_.large_sets, cfg_.large_ways,
                 large_page_number(vaddr.raw()));
        slot != kNoSlot) {
        large_.lru[slot] = ++lru_stamp_;
        r.hit = true;
        r.page_base = PhysAddr{large_.page_base[slot]};
        r.large = true;
        return r;
    }
    ++st.misses;
    return r;
}

void
Tlb::fill(VirtAddr vaddr, PhysAddr page_base, bool large,
          bool from_prefetch)
{
    if (from_prefetch) {
        ++prefetch_fills_;
    }
    if (large) {
        install(large_, cfg_.large_sets, cfg_.large_ways,
                large_page_number(vaddr.raw()), page_base.raw());
    } else {
        install(small_, cfg_.sets, cfg_.ways, page_number(vaddr.raw()),
                page_base.raw());
    }
}


template <class Self, class IO>
void
Tlb::serialize(Self &self, IO &io)
{
    for (auto *arr : {&self.small_, &self.large_}) {
        field(io, arr->vpn);
        field(io, arr->page_base);
        field(io, arr->lru);
    }
    field(io, self.lru_stamp_);
    field(io, self.demand_);
    field(io, self.probe_);
    field(io, self.prefetch_fills_);
}

template void Tlb::serialize(const Tlb &, SnapshotWriter &);
template void Tlb::serialize(Tlb &, SnapshotReader &);

}  // namespace moka
