#include "vmem/walker.h"

#include <algorithm>

#include "snapshot/snapshot.h"

namespace moka {

bool
StructureCache::lookup(Addr prefix)
{
    ++lookups_;
    for (std::size_t i = 0; i < size_; ++i) {
        if (data_[i].prefix == prefix) {
            data_[i].lru = ++lru_stamp_;
            ++hits_;
            return true;
        }
    }
    return false;
}

void
StructureCache::fill(Addr prefix)
{
    for (std::size_t i = 0; i < size_; ++i) {
        if (data_[i].prefix == prefix) {
            data_[i].lru = ++lru_stamp_;
            return;
        }
    }
    if (size_ < data_.size()) {
        data_[size_++] = {prefix, ++lru_stamp_};
        return;
    }
    Entry *victim = &data_[0];
    for (Entry &e : data_) {
        if (e.lru < victim->lru) {
            victim = &e;
        }
    }
    victim->prefix = prefix;
    victim->lru = ++lru_stamp_;
}

PageWalker::PageWalker(const WalkerConfig &config, PageTable *table,
                       MemoryLevel *memory)
    : cfg_(config), table_(table), memory_(memory),
      psc_pml5_(config.psc_pml5_entries),
      psc_pml4_(config.psc_pml4_entries),
      psc_pdpte_(config.psc_pdpte_entries),
      psc_pde_(config.psc_pde_entries),
      walker_free_(std::max(1u, config.concurrent_walks), 0)
{
}

PageWalker::WalkResult
PageWalker::walk(VirtAddr vaddr, Cycle now, bool speculative)
{
    if (speculative) {
        ++spec_walks_;
    } else {
        ++demand_walks_;
    }

    // Claim the earliest-available walker slot.
    auto slot = std::min_element(walker_free_.begin(), walker_free_.end());
    Cycle t = std::max(now, *slot);

    std::array<PhysAddr, 5> pte_addrs;
    const unsigned levels = table_->walk_addresses(vaddr, pte_addrs);

    // Split PSC lookup (parallel, 1 cycle): deepest hit decides how
    // many upper-level reads the walk may skip. PSC prefixes, deepest
    // first. A PDE-PSC hit on a 2MB mapping resolves the translation
    // outright (the PDE is the leaf). PSCs are keyed by raw VA
    // prefixes; the walker is part of the vmem translation seam.
    const Addr va = vaddr.raw();
    t += cfg_.psc_latency;
    unsigned first_level = 0;  // index into pte_addrs to start reading at
    if (psc_pde_.lookup(va >> kLargePageBits)) {
        first_level = 4;
    } else if (psc_pdpte_.lookup(va >> 30)) {
        first_level = 3;
    } else if (psc_pml4_.lookup(va >> 39)) {
        first_level = 2;
    } else if (psc_pml5_.lookup(va >> 48)) {
        first_level = 1;
    }

    WalkResult r;
    for (unsigned i = first_level; i < levels; ++i) {
        // Dependent chain: each PTE read must finish before the next.
        t = memory_->access(pte_addrs[i], AccessType::kPageWalk, t).done;
        ++r.mem_refs;
    }
    total_mem_refs_ += r.mem_refs;

    // Refill PSCs for every level the walk traversed.
    if (levels == 5) {
        psc_pde_.fill(va >> kLargePageBits);
    }
    psc_pdpte_.fill(va >> 30);
    psc_pml4_.fill(va >> 39);
    psc_pml5_.fill(va >> 48);

    const Translation tr = table_->translate(vaddr);
    r.done = t;
    r.page_base = tr.large ? PhysAddr{tr.paddr.raw() & ~(kLargePageSize - 1)}
                           : PhysAddr{tr.paddr.raw() & ~(kPageSize - 1)};
    r.large = tr.large;

    *slot = t;
    return r;
}


template <class Self, class IO>
void
StructureCache::serialize(Self &self, IO &io)
{
    field_as<std::uint64_t>(io, self.size_);
    require(io, self.size_ <= self.data_.size(),
            "PSC occupancy above its capacity");
    for (std::size_t i = 0; i < self.size_; ++i) {
        field(io, self.data_[i].prefix);
        field(io, self.data_[i].lru);
    }
    field(io, self.lru_stamp_);
    field(io, self.hits_);
    field(io, self.lookups_);
}

template void StructureCache::serialize(const StructureCache &,
                                        SnapshotWriter &);
template void StructureCache::serialize(StructureCache &, SnapshotReader &);

template <class Self, class IO>
void
PageWalker::serialize(Self &self, IO &io)
{
    field(io, self.psc_pml5_);
    field(io, self.psc_pml4_);
    field(io, self.psc_pdpte_);
    field(io, self.psc_pde_);
    field(io, self.walker_free_);
    field(io, self.demand_walks_);
    field(io, self.spec_walks_);
    field(io, self.total_mem_refs_);
}

template void PageWalker::serialize(const PageWalker &, SnapshotWriter &);
template void PageWalker::serialize(PageWalker &, SnapshotReader &);

}  // namespace moka
