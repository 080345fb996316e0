#include "core/frontend.h"

#include <algorithm>

#include "snapshot/snapshot.h"

namespace moka {

Frontend::Frontend(const FrontendConfig &config, Cache *l1i, Tlb *itlb,
                   Tlb *stlb, PageWalker *walker, BranchPredictor *bp)
    : cfg_(config), l1i_(l1i), itlb_(itlb), stlb_(stlb), walker_(walker),
      bp_(bp)
{
}

std::pair<PhysAddr, Cycle>
Frontend::translate(VirtAddr vaddr, Cycle now)
{
    Tlb::Result r = itlb_->lookup(vaddr, now, /*demand=*/true);
    if (r.hit) {
        return {r.page_base + (r.large ? large_page_offset(vaddr)
                                       : page_offset(vaddr)),
                r.done};
    }
    Tlb::Result s = stlb_->lookup(vaddr, r.done, /*demand=*/true);
    if (s.hit) {
        itlb_->fill(vaddr, s.page_base, s.large, /*from_prefetch=*/false);
        return {s.page_base + (s.large ? large_page_offset(vaddr)
                                       : page_offset(vaddr)),
                s.done};
    }
    const PageWalker::WalkResult w =
        walker_->walk(vaddr, s.done, /*speculative=*/false);
    stlb_->fill(vaddr, w.page_base, w.large, false);
    itlb_->fill(vaddr, w.page_base, w.large, false);
    return {w.page_base + (w.large ? large_page_offset(vaddr)
                                   : page_offset(vaddr)),
            w.done};
}

Frontend::FetchResult
Frontend::fetch(const TraceInst &inst)
{
    // Width-limited fetch grouping.
    if (++group_used_ > cfg_.fetch_width) {
        fetch_cycle_ += 1;
        group_used_ = 1;
    }

    // New cache block: translate and access L1I. The PC is a virtual
    // address on the fetch path.
    const VirtAddr vpc{inst.pc};
    const Addr block = block_number(vpc);
    if (block != cur_block_) {
        cur_block_ = block;
        auto [paddr, tdone] = translate(vpc, fetch_cycle_);
        const AccessResult r =
            l1i_->access(paddr, AccessType::kInstFetch, tdone);
        fetch_cycle_ = std::max(fetch_cycle_, r.done);

        // Next-line instruction prefetch (fnl-lite): stay within the
        // page so no speculative instruction-side walks are added.
        for (unsigned d = 1; d <= cfg_.l1i_prefetch_degree; ++d) {
            const VirtAddr tv = vpc + d * kBlockSize;
            if (crosses_page(vpc, tv)) {
                break;
            }
            const PhysAddr tp = page_addr(paddr) + page_offset(tv);
            if (!l1i_->probe(tp)) {
                l1i_->access(tp, AccessType::kPrefetch, tdone);
            }
        }
    }

    FetchResult out;
    out.ready = fetch_cycle_;
    if (inst.op == OpClass::kBranch) {
        const bool predicted = bp_->predict(inst.pc);
        bp_->update(inst.pc, inst.taken);
        out.mispredict = predicted != inst.taken;
        if (out.mispredict) {
            // The block after a redirect restarts fetch grouping.
            cur_block_ = ~Addr{0};
        }
    }
    return out;
}

void
Frontend::redirect(Cycle resolve_cycle)
{
    fetch_cycle_ =
        std::max(fetch_cycle_, resolve_cycle + cfg_.mispredict_penalty);
    group_used_ = 0;
}

template <class Self, class IO>
void
Frontend::serialize(Self &self, IO &io)
{
    field(io, self.fetch_cycle_);
    field(io, self.group_used_);
    field(io, self.cur_block_);
}

template void Frontend::serialize(const Frontend &, SnapshotWriter &);
template void Frontend::serialize(Frontend &, SnapshotReader &);

}  // namespace moka
