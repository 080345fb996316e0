/**
 * @file
 * Decoupled frontend: instruction fetch through iTLB + L1I (with a
 * next-line instruction prefetcher standing in for fnl+mma — see
 * DESIGN.md), width-limited fetch grouping, and mispredict redirect
 * bubbles. Produces, per instruction, the cycle at which it becomes
 * available for dispatch.
 */
#ifndef MOKASIM_CORE_FRONTEND_H
#define MOKASIM_CORE_FRONTEND_H

#include "cache/cache.h"
#include "common/types.h"
#include "core/branch_pred.h"
#include "trace/workload.h"
#include "vmem/tlb.h"
#include "vmem/walker.h"

namespace moka {

class SnapshotReader;
class SnapshotWriter;

/** Frontend parameters. */
struct FrontendConfig
{
    unsigned fetch_width = 6;
    unsigned l1i_prefetch_degree = 2;  //!< next-line degree (fnl-lite)
    Cycle mispredict_penalty = 12;

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("fetch_width", s.fetch_width...);
        v("l1i_prefetch_degree", s.l1i_prefetch_degree...);
        v("mispredict_penalty", s.mispredict_penalty...);
    }
};

/** See file comment. */
class Frontend
{
  public:
    /** Outcome of fetching one instruction. */
    struct FetchResult
    {
        Cycle ready = 0;        //!< available-for-dispatch cycle
        bool mispredict = false; //!< direction mispredicted
    };

    /** All collaborators are owned by the machine. */
    Frontend(const FrontendConfig &config, Cache *l1i, Tlb *itlb,
             Tlb *stlb, PageWalker *walker, BranchPredictor *bp);

    /** Fetch @p inst; see FetchResult. */
    FetchResult fetch(const TraceInst &inst);

    /**
     * A mispredicted branch resolved at @p resolve_cycle: fetch
     * resumes after the refill bubble.
     */
    void redirect(Cycle resolve_cycle);

    /** Serialize fetch-stream state (collaborators snapshot separately). */
    void save_state(SnapshotWriter &w) const { serialize(*this, w); }
    /** Inverse of save_state on a same-config instance. */
    void restore_state(SnapshotReader &r) { serialize(*this, r); }

  private:
    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    /** iTLB -> sTLB -> walk; returns {paddr, done}. */
    std::pair<PhysAddr, Cycle> translate(VirtAddr vaddr, Cycle now);

    FrontendConfig cfg_;       // LINT_SNAPSHOT_OK: config
    Cache *l1i_;               // LINT_SNAPSHOT_OK: collaborator, owned by core
    Tlb *itlb_;                // LINT_SNAPSHOT_OK: collaborator, owned by core
    Tlb *stlb_;                // LINT_SNAPSHOT_OK: collaborator, owned by core
    PageWalker *walker_;       // LINT_SNAPSHOT_OK: collaborator, owned by core
    BranchPredictor *bp_;      // LINT_SNAPSHOT_OK: collaborator, owned by core
    Cycle fetch_cycle_ = 0;
    unsigned group_used_ = 0;
    Addr cur_block_ = ~Addr{0};
};

}  // namespace moka

#endif  // MOKASIM_CORE_FRONTEND_H
