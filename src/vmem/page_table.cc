#include "vmem/page_table.h"

#include <algorithm>

#include "common/check.h"
#include "common/hashing.h"
#include "snapshot/snapshot.h"

namespace moka {
namespace {

/** 9-bit radix index of @p vaddr at @p level (0 = PT, 4 = PML5). */
constexpr unsigned
radix_index(Addr vaddr, unsigned level)
{
    return static_cast<unsigned>((vaddr >> (kPageBits + 9 * level)) & 0x1FF);
}

/** @p config, once its memory is known to fit (before any bitmap). */
const VmemConfig &
bounded(const VmemConfig &config)
{
    SIM_REQUIRE(config.phys_bytes <= PageTable::kMaxPhysBytes,
                "physical memory above 128 GiB overflows 31-bit cache tags");
    return config;
}

/** Entries a map reserves for @p page_bound pages, at most @p cap. */
constexpr std::size_t
reservation(std::size_t page_bound, std::size_t cap)
{
    return page_bound == 0 ? cap : std::min(page_bound, cap);
}

}  // namespace

PageTable::PageTable(const VmemConfig &config, std::size_t page_bound)
    : cfg_(bounded(config)), page_bound_(page_bound), rng_(config.seed),
      tables_{FlatAddrMap(reservation(page_bound, kTableMapCap)),
              FlatAddrMap(reservation(page_bound, kTableMapCap)),
              FlatAddrMap(reservation(page_bound, kTableMapCap)),
              FlatAddrMap(reservation(page_bound, kTableMapCap))},
      page_map_(reservation(page_bound, kPageMapCap)),
      large_page_map_(config.large_page_fraction > 0.0
                          ? reservation(page_bound, kTableMapCap)
                          : 0),
      used_frames_(
          static_cast<std::size_t>(config.phys_bytes / kPageSize / 2)),
      used_large_frames_(static_cast<std::size_t>(
          (config.phys_bytes / 2) / kLargePageSize))
{
    root_ = alloc_frame();
}

Addr
PageTable::alloc_frame()
{
    // 4KB frames come from the lower half of physical memory; 2MB
    // frames from the upper half (avoids overlap bookkeeping).
    const Addr frames = cfg_.phys_bytes / kPageSize / 2;
    for (;;) {
        const Addr f = rng_.below(frames);
        if (used_frames_.insert(static_cast<std::size_t>(f))) {
            return f * kPageSize;
        }
    }
}

Addr
PageTable::alloc_large_frame()
{
    const Addr half = cfg_.phys_bytes / 2;
    const Addr frames = half / kLargePageSize;
    SIM_REQUIRE(frames > 0,
                "physical memory too small for a 2MB page partition");
    for (;;) {
        const Addr f = rng_.below(frames);
        if (used_large_frames_.insert(static_cast<std::size_t>(f))) {
            return half + f * kLargePageSize;
        }
    }
}

bool
PageTable::is_large_region(VirtAddr vaddr) const
{
    if (cfg_.large_page_fraction <= 0.0) {
        return false;
    }
    // Deterministic per-region coin flip so every simulation of the
    // same address space agrees on page sizes.
    const Addr region = large_page_number(vaddr.raw());
    const double draw =
        static_cast<double>(mix64(region ^ cfg_.seed) >> 11) * 0x1.0p-53;
    return draw < cfg_.large_page_fraction;
}

Translation
PageTable::translate(VirtAddr vaddr)
{
    // The page table is the authoritative VA->PA bridge: virtual
    // bits unwrap here, physical bits wrap on the way out (the page
    // maps and frame allocator speak raw frame numbers).
    Translation t;
    if (is_large_region(vaddr)) {
        const Addr lvpn = large_page_number(vaddr.raw());
        auto [frame, inserted] = large_page_map_.try_emplace(lvpn);
        if (inserted) {
            *frame = frame_number(alloc_large_frame());
        }
        t.paddr =
            PhysAddr{frame_base(*frame) + large_page_offset(vaddr.raw())};
        t.large = true;
        return t;
    }
    const Addr vpn = page_number(vaddr.raw());
    auto [frame, inserted] = page_map_.try_emplace(vpn);
    if (inserted) {
        *frame = frame_number(alloc_frame());
    }
    t.paddr = PhysAddr{frame_base(*frame) + page_offset(vaddr.raw())};
    t.large = false;
    return t;
}

Addr
PageTable::table_frame(unsigned level, Addr prefix)
{
    auto [frame, inserted] = tables_[level].try_emplace(prefix);
    if (inserted) {
        *frame = frame_number(alloc_frame());
    }
    return frame_base(*frame);
}

unsigned
PageTable::walk_addresses(VirtAddr vaddr, std::array<PhysAddr, 5> &out)
{
    // Levels top-down: PML5 (radix level 4) .. PT (radix level 0).
    // Table frames are keyed by the VA prefix above each table so
    // adjacent pages share leaf tables, giving walks cache locality.
    const Addr va = vaddr.raw();
    out[0] = PhysAddr{root_ + radix_index(va, 4) * 8};
    const Addr pml4 = table_frame(3, va >> (kPageBits + 9 * 4));
    out[1] = PhysAddr{pml4 + radix_index(va, 3) * 8};
    const Addr pdpt = table_frame(2, va >> (kPageBits + 9 * 3));
    out[2] = PhysAddr{pdpt + radix_index(va, 2) * 8};
    const Addr pd = table_frame(1, va >> (kPageBits + 9 * 2));
    out[3] = PhysAddr{pd + radix_index(va, 1) * 8};
    if (is_large_region(vaddr)) {
        return 4;  // PDE maps the 2MB page directly
    }
    const Addr pt = table_frame(0, va >> (kPageBits + 9));
    out[4] = PhysAddr{pt + radix_index(va, 0) * 8};
    return 5;
}


template <class Self, class IO>
void
PageTable::serialize(Self &self, IO &io)
{
    field(io, self.rng_);
    field(io, self.root_);
    field(io, self.tables_);
    field(io, self.page_map_);
    field(io, self.large_page_map_);
    field(io, self.used_frames_);
    field(io, self.used_large_frames_);
}

template void PageTable::serialize(const PageTable &, SnapshotWriter &);
template void PageTable::serialize(PageTable &, SnapshotReader &);

}  // namespace moka
