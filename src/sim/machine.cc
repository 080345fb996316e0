#include "sim/machine.h"

#include <algorithm>
#include <string>
#include <type_traits>

#include "audit/audit.h"
#include "common/check.h"
#include "common/hashing.h"
#include "snapshot/snapshot.h"

namespace moka {

MachineConfig
default_config(unsigned cores)
{
    MachineConfig cfg;
    // LLC scales with core count (2MB per core); DRAM channels scale
    // at one per two cores so the 8-core mixes are contended but not
    // saturated by the memory-intensive roster.
    cfg.llc.sets = 2048 * cores;
    cfg.dram.channels = std::max(1u, cores / 2);
    cfg.vmem.phys_bytes = (cores > 1) ? (Addr{16} << 30) : (Addr{4} << 30);
    return cfg;
}

// ---------------------------------------------------------------------------
// CoreComplex
// ---------------------------------------------------------------------------

CoreComplex::CoreComplex(const MachineConfig &cfg, Cache *llc,
                         WorkloadPtr workload, std::uint64_t seed)
    : cfg_(cfg), llc_shared_(llc), bp_(cfg.branch), core_(cfg.core),
      frontend_(cfg.frontend, nullptr, nullptr, nullptr, nullptr, nullptr),
      workload_(std::move(workload))
{
    l2_ = std::make_unique<Cache>(cfg.l2, llc);
    l1i_ = std::make_unique<Cache>(cfg.l1i, l2_.get());
    l1d_ = std::make_unique<Cache>(cfg.l1d, l2_.get());
    l1d_->set_listener(this);

    VmemConfig vmem = cfg.vmem;
    vmem.seed = hash_combine(vmem.seed, seed);
    page_table_ = std::make_unique<PageTable>(vmem, workload_->page_bound());
    itlb_ = std::make_unique<Tlb>(cfg.itlb);
    dtlb_ = std::make_unique<Tlb>(cfg.dtlb);
    stlb_ = std::make_unique<Tlb>(cfg.stlb);
    walker_ = std::make_unique<PageWalker>(cfg.walker, page_table_.get(),
                                           l2_.get());

    frontend_ = Frontend(cfg.frontend, l1i_.get(), itlb_.get(),
                         stlb_.get(), walker_.get(), &bp_);

    l1d_pf_ = make_l1d_prefetcher(cfg.l1d_prefetcher,
                                  cfg.scheme.iso_storage);
    l2_pf_ = make_l2_prefetcher(cfg.l2_prefetcher);
    if (cfg.scheme.policy == PgcPolicy::kFilter) {
        SIM_REQUIRE(cfg.scheme.make_filter != nullptr,
                    "kFilter scheme configured without a filter factory");
        filter_ = cfg.scheme.make_filter();
    }

    next_interval_ = cfg.interval_insts;
    next_epoch_ = cfg.epoch_insts;
    next_audit_ = cfg.audit_interval_insts;
}

CoreComplex::~CoreComplex() = default;

CoreComplex::Translated
CoreComplex::translate_demand(VirtAddr vaddr, Cycle now)
{
    Translated out;
    Tlb::Result d = dtlb_->lookup(vaddr, now, /*demand=*/true);
    if (d.hit) {
        out.page_base = d.page_base;
        out.large = d.large;
        out.done = d.done;
    } else {
        Tlb::Result s = stlb_->lookup(vaddr, d.done, /*demand=*/true);
        if (s.hit) {
            dtlb_->fill(vaddr, s.page_base, s.large, false);
            out.page_base = s.page_base;
            out.large = s.large;
            out.done = s.done;
        } else {
            const PageWalker::WalkResult w =
                walker_->walk(vaddr, s.done, /*speculative=*/false);
            stlb_->fill(vaddr, w.page_base, w.large, false);
            dtlb_->fill(vaddr, w.page_base, w.large, false);
            out.page_base = w.page_base;
            out.large = w.large;
            out.done = w.done;
        }
    }
    out.paddr = out.page_base + (out.large ? large_page_offset(vaddr)
                                           : page_offset(vaddr));
    return out;
}

void
CoreComplex::process_candidate(const PrefetchRequest &req,
                               const Translated &trigger, Cycle now)
{
    const bool pgc = crosses_page(req.trigger_vaddr, req.vaddr);

    if (!pgc) {
        // In-page prefetch: reuse the trigger's translation.
        const PhysAddr paddr =
            trigger.page_base +
            (trigger.large ? large_page_offset(req.vaddr)
                           : page_offset(req.vaddr));
        const AccessResult r =
            l1d_->access(paddr, AccessType::kPrefetch, now, false);
        if (!r.hit && !r.merged) {
            l1d_pf_->on_fill(req.vaddr, r.done, true);
        }
        return;
    }

    ++pgc_candidates_;

    // --- Page-cross decision (Fig. 5 step B) -------------------------
    bool permit = false;
    switch (cfg_.scheme.policy) {
      case PgcPolicy::kPermit:
        permit = true;
        break;
      case PgcPolicy::kDiscard:
        permit = false;
        break;
      case PgcPolicy::kDiscardPtw:
        permit = true;  // resolved at the TLB probe below
        break;
      case PgcPolicy::kFilter:
        if (cfg_.scheme.filter_at_2mb &&
            page_table_->is_large_region(req.trigger_vaddr) &&
            !crosses_large_page(req.trigger_vaddr, req.vaddr)) {
            // Fig. 16 variant: inside a 2MB page, only 2MB-boundary
            // crossings are filtered; 4KB crossings pass freely.
            permit = true;
        } else {
            permit = filter_->permit(req.trigger_pc, req.trigger_vaddr,
                                     req.delta, req.vaddr, last_snapshot_,
                                     req.meta);
        }
        break;
    }
    if (!permit) {
        ++pgc_dropped_;
        return;
    }

    // --- TLB probe and (possibly) speculative walk (steps C-D) -------
    const bool used_filter = cfg_.scheme.policy == PgcPolicy::kFilter &&
                             filter_ != nullptr;
    PhysAddr page_base;
    bool large;
    Cycle t;
    Tlb::Result d = dtlb_->lookup(req.vaddr, now, /*demand=*/false);
    if (d.hit) {
        page_base = d.page_base;
        large = d.large;
        t = d.done;
    } else {
        Tlb::Result s = stlb_->lookup(req.vaddr, d.done, /*demand=*/false);
        if (s.hit) {
            dtlb_->fill(req.vaddr, s.page_base, s.large,
                        /*from_prefetch=*/true);
            page_base = s.page_base;
            large = s.large;
            t = s.done;
        } else if (cfg_.scheme.policy == PgcPolicy::kDiscardPtw) {
            // No resident translation: drop instead of walking.
            ++pgc_dropped_;
            return;
        } else {
            const PageWalker::WalkResult w =
                walker_->walk(req.vaddr, s.done, /*speculative=*/true);
            stlb_->fill(req.vaddr, w.page_base, w.large, true);
            dtlb_->fill(req.vaddr, w.page_base, w.large, true);
            page_base = w.page_base;
            large = w.large;
            t = w.done;
        }
    }

    const PhysAddr paddr =
        page_base + (large ? large_page_offset(req.vaddr)
                           : page_offset(req.vaddr));
    const AccessResult r =
        l1d_->access(paddr, AccessType::kPrefetch, t, /*pgc=*/true);
    if (!r.hit && !r.merged) {
        l1d_pf_->on_fill(req.vaddr, r.done, true);
        if (used_filter) {
            filter_->on_pgc_issued(req.vaddr, paddr);
        }
    } else if (used_filter) {
        filter_->on_pgc_abandoned();
    }
}

void
CoreComplex::run_l1d_prefetcher(const PrefetchContext &ctx,
                                const Translated &trigger)
{
    pf_buffer_.clear();
    l1d_pf_->on_access(ctx, pf_buffer_);
    for (const PrefetchRequest &req : pf_buffer_) {
        process_candidate(req, trigger, ctx.now);
    }
}

void
CoreComplex::run_l2_prefetcher(PhysAddr trigger_paddr, Addr pc, Cycle now)
{
    l2_pf_buffer_.clear();
    // L2 prefetchers train and prefetch on physical addresses; the
    // physical_context/physical_target adapters are the declared
    // re-labelling seam for reusing the Prefetcher interface there.
    const PrefetchContext ctx =
        physical_context(trigger_paddr, pc, /*hit=*/false,
                         /*store=*/false, now);
    l2_pf_->on_access(ctx, l2_pf_buffer_);
    for (const PrefetchRequest &req : l2_pf_buffer_) {
        // PIPT safety: physical page crossing is never allowed at L2.
        if (crosses_page(req.trigger_vaddr, req.vaddr)) {
            continue;
        }
        l2_->access(physical_target(req), AccessType::kPrefetch, now,
                    false);
    }
}

void
CoreComplex::handle_memory(const TraceInst &inst, Cycle dispatch,
                           Cycle &complete)
{
    Cycle issue = dispatch + 1;  // address generation
    if (inst.dep_load) {
        issue = std::max(issue, last_load_complete_);
    }

    const Translated tr = translate_demand(inst.mem_addr, issue);
    const bool is_store = inst.op == OpClass::kStore;
    const AccessResult r = l1d_->access(
        tr.paddr, is_store ? AccessType::kStore : AccessType::kLoad,
        tr.done);

    if (!r.hit) {
        if (filter_ != nullptr) {
            // vUB false-negative check (Fig. 7 steps 1-3).
            filter_->on_l1d_demand_miss(inst.mem_addr);
        }
        if (!r.merged) {
            // Demand fill: timeliness cue for fill-trained prefetchers.
            l1d_pf_->on_fill(inst.mem_addr, r.done, false);
        }
    }

    if (is_store) {
        // Stores retire once translated (store buffer absorbs the
        // write latency).
        complete = tr.done + 1;
    } else {
        complete = r.done;
        last_load_complete_ = r.done;
    }

    PrefetchContext ctx;
    ctx.vaddr = inst.mem_addr;
    ctx.pc = inst.pc;
    ctx.hit = r.hit;
    ctx.store = is_store;
    ctx.now = tr.done;
    run_l1d_prefetcher(ctx, tr);

    if (!r.hit && l2_pf_ != nullptr) {
        run_l2_prefetcher(tr.paddr, inst.pc, tr.done);
    }

    if (filter_ != nullptr) {
        // History update comes last so the current access is the
        // trigger (VA_i) and the buffers hold VA_{i-1}, VA_{i-2}.
        filter_->on_demand_access(inst.pc, inst.mem_addr);
    }
}

void
CoreComplex::step()
{
    const TraceInst inst = workload_->next();
    const Frontend::FetchResult fr = frontend_.fetch(inst);
    const Cycle dispatch = core_.dispatch(fr.ready);
    Cycle complete = dispatch + 1;

    if (inst.op == OpClass::kLoad || inst.op == OpClass::kStore) {
        handle_memory(inst, dispatch, complete);
    }
    if (inst.op == OpClass::kBranch && fr.mispredict) {
        frontend_.redirect(complete);
    }

    core_.retire(complete);
    if (core_.retired() >= next_interval_) {
        interval_tick();
    }
}

SystemSnapshot
CoreComplex::snapshot() const
{
    SystemSnapshot s;
    const InstCount di =
        std::max<InstCount>(1, core_.retired() - window_start_.insts);
    const AccessStats l1d = l1d_->stats().demand - window_start_.l1d;
    const AccessStats l1i = l1i_->stats().demand - window_start_.l1i;
    const AccessStats stlb = stlb_->demand_stats() - window_start_.stlb;
    // The LLC is shared: its windowed stats are machine-wide, which
    // is exactly the pressure the adaptive scheme must react to.
    const AccessStats llc = llc_shared_->stats().demand - window_start_.llc;
    s.llc_mpki = llc.mpki(di);
    s.llc_miss_rate = llc.miss_rate();
    s.l1d_mpki = l1d.mpki(di);
    s.l1d_miss_rate = l1d.miss_rate();
    s.l1i_mpki = l1i.mpki(di);
    s.stlb_mpki = stlb.mpki(di);
    s.stlb_miss_rate = stlb.miss_rate();
    const Cycle dc = core_.last_retire() > window_start_.cycle
                         ? core_.last_retire() - window_start_.cycle
                         : 1;
    s.ipc = static_cast<double>(di) / static_cast<double>(dc);
    s.rob_occupancy = core_.rob_pressure();
    s.inflight_l1d_misses = l1d_->inflight_misses(core_.last_retire());
    const std::uint64_t resolved = epoch_pgc_useful_ + epoch_pgc_useless_;
    s.pgc_accuracy_valid = resolved >= 8;
    s.pgc_accuracy =
        resolved == 0 ? 1.0
                      : static_cast<double>(epoch_pgc_useful_) /
                            static_cast<double>(resolved);
    return s;
}

void
CoreComplex::interval_tick()
{
    next_interval_ += cfg_.interval_insts;
    last_snapshot_ = snapshot();
    if (filter_ != nullptr) {
        filter_->on_interval(last_snapshot_);
    }

    // Reset the measurement window.
    window_start_.l1d = l1d_->stats().demand;
    window_start_.l1i = l1i_->stats().demand;
    window_start_.stlb = stlb_->demand_stats();
    window_start_.llc = llc_shared_->stats().demand;
    window_start_.insts = core_.retired();
    window_start_.cycle = core_.last_retire();
    core_.reset_pressure_window();

    if (core_.retired() >= next_epoch_) {
        next_epoch_ += cfg_.epoch_insts;
        if (filter_ != nullptr) {
            EpochInfo info;
            const std::uint64_t resolved =
                epoch_pgc_useful_ + epoch_pgc_useless_;
            info.accuracy_valid = resolved >= 16;
            info.pgc_accuracy =
                resolved == 0
                    ? 0.0
                    : static_cast<double>(epoch_pgc_useful_) /
                          static_cast<double>(resolved);
            const InstCount ei = core_.retired() - epoch_start_insts_;
            const Cycle ec =
                std::max<Cycle>(1, core_.last_retire() - epoch_start_cycle_);
            info.ipc = static_cast<double>(ei) / static_cast<double>(ec);
            filter_->on_epoch(info);
        }
        epoch_pgc_useful_ = 0;
        epoch_pgc_useless_ = 0;
        epoch_start_insts_ = core_.retired();
        epoch_start_cycle_ = core_.last_retire();
    }

#if SIM_AUDIT_ENABLED
    if (cfg_.audit_interval_insts > 0 && core_.retired() >= next_audit_) {
        next_audit_ += cfg_.audit_interval_insts;
        AuditReport report(/*forward=*/true);
        audit(report);
    }
#endif
}

void
CoreComplex::audit(AuditReport &report) const
{
    audit::audit_cache(*l1i_, report);
    audit::audit_cache(*l1d_, report);
    audit::audit_cache(*l2_, report);
    audit::audit_page_table(*page_table_, report);
    audit::audit_tlb(*itlb_, *page_table_, report);
    audit::audit_tlb(*dtlb_, *page_table_, report);
    audit::audit_tlb(*stlb_, *page_table_, report);
    audit::audit_walker(*walker_, report);
    if (filter_ != nullptr) {
        audit::audit_filter(*filter_, report);
        audit::audit_pcb_pub(*l1d_, *filter_, report);
    }
}

void
CoreComplex::on_pgc_first_use(PhysAddr block_paddr)
{
    ++epoch_pgc_useful_;
    if (filter_ != nullptr) {
        filter_->on_pgc_first_use(block_paddr);
    }
}

void
CoreComplex::on_eviction(PhysAddr block_paddr, bool prefetched, bool pgc,
                         bool used)
{
    if (!prefetched || !pgc) {
        return;
    }
    if (!used) {
        ++epoch_pgc_useless_;
    }
    if (filter_ != nullptr) {
        filter_->on_pgc_eviction(block_paddr, used);
    }
}

RunMetrics
CoreComplex::metrics() const
{
    RunMetrics m;
    m.instructions = core_.retired();
    m.cycles = core_.last_retire();
    m.l1i = l1i_->stats().demand;
    m.l1d = l1d_->stats().demand;
    m.l2 = l2_->stats().demand;
    m.dtlb = dtlb_->demand_stats();
    m.stlb = stlb_->demand_stats();
    m.l2_walk = l2_->stats().walk;
    m.l1d_writebacks = l1d_->stats().writebacks;
    m.l1d_pf_lookups = l1d_->stats().prefetch_lookups;
    const PrefetchStats &pf = l1d_->stats().pf;
    m.pf_issued = pf.issued;
    m.pf_useful = pf.useful;
    m.pf_useless = pf.useless;
    m.pgc_candidates = pgc_candidates_;
    m.pgc_issued = pf.pgc_issued;
    m.pgc_useful = pf.pgc_useful;
    m.pgc_useless = pf.pgc_useless;
    m.pgc_dropped = pgc_dropped_;
    m.demand_walks = walker_->demand_walks();
    m.spec_walks = walker_->spec_walks();
    m.walk_refs = walker_->total_mem_refs();
    m.branch_mispredicts = bp_.mispredicts();
    return m;
}

// ---------------------------------------------------------------------------
// Machine
// ---------------------------------------------------------------------------

Machine::Machine(const MachineConfig &cfg,
                 std::vector<WorkloadPtr> workloads)
    : cfg_(cfg)
{
    dram_ = std::make_unique<Dram>(cfg_.dram);
    llc_ = std::make_unique<Cache>(cfg_.llc, dram_.get());
    std::uint64_t seed = 0x1234;
    for (WorkloadPtr &w : workloads) {
        cores_.push_back(std::make_unique<CoreComplex>(
            cfg_, llc_.get(), std::move(w), mix64(++seed)));
    }
    measure_start_.resize(cores_.size());
    at_budget_.resize(cores_.size());
    run_target_.resize(cores_.size());
    run_crossed_.resize(cores_.size());
}

Machine::~Machine() = default;

void
Machine::start_measurement()
{
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        measure_start_[i] = cores_[i]->metrics();
        measure_start_[i].llc = llc_->stats().demand;
        measure_start_[i].dram_accesses = dram_->accesses();
    }
}

void
Machine::run(InstCount insts_per_core, RunTickHook *hook)
{
    std::vector<InstCount> &target = run_target_;
    std::vector<std::uint8_t> &crossed = run_crossed_;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        target[i] = cores_[i]->retired() + insts_per_core;
        crossed[i] = 0;
    }
    std::size_t remaining = cores_.size();
    // LINT_HOT_OK: once per run; then once per step the hook asked for.
    std::uint64_t due = hook != nullptr ? hook->next_tick(steps_)
                                        : RunTickHook::kNever;
    const std::size_t n = cores_.size();
    while (remaining > 0) {
        // Step the core whose clock is furthest behind, the lower
        // index on a tie, so shared-level contention interleaves in
        // rough time order. Finished cores keep replaying (paper
        // §IV-A2) until all cores cross. A step moves only its own
        // core's clock, so the pick stays the same until its clock
        // passes the runner-up's: step it until then, and rescan.
        std::size_t pick = 0;
        Cycle best = cores_[0]->now();
        std::size_t next = n;  // the runner-up; n with one core
        Cycle second = ~Cycle{0};
        for (std::size_t i = 1; i < n; ++i) {
            const Cycle c = cores_[i]->now();
            if (c < best) {
                second = best;
                next = pick;
                best = c;
                pick = i;
            } else if (c < second || next == n) {
                second = c;
                next = i;
            }
        }
        CoreComplex &core = *cores_[pick];
        do {
            core.step();
            ++steps_;
            if (steps_ >= due) {
                // The tick hook is the engine's fault/watchdog/
                // telemetry seam. Every engine job installs one, so it
                // runs only at the steps it asked for (a watchdog
                // heartbeat every few thousand steps), not once per
                // step.
                // LINT_HOT_OK: dispatched at those steps only (rule L12).
                hook->on_tick(steps_);
                due = hook->next_tick(steps_);
            }
            if (crossed[pick] == 0 && core.retired() >= target[pick]) {
                crossed[pick] = 1;
                at_budget_[pick] = core.metrics();
                --remaining;
            }
        } while (remaining > 0 && (core.now() < second ||
                                   (core.now() == second && pick < next)));
    }
    // Fill shared-structure stats machine-wide into each core's
    // budget snapshot.
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        at_budget_[i].llc = llc_->stats().demand;
        at_budget_[i].dram_accesses = dram_->accesses();
    }
}

RunMetrics
Machine::measured(std::size_t i) const
{
    return at_budget_[i] - measure_start_[i];
}

void
Machine::audit(AuditReport &report) const
{
    audit::audit_cache(*llc_, report);
    audit::audit_dram(*dram_, report);
    for (const auto &core : cores_) {
        core->audit(report);
    }
}

// ---------------------------------------------------------------------------
// Snapshotting
// ---------------------------------------------------------------------------

std::uint64_t
config_fingerprint(const MachineConfig &cfg, std::size_t cores)
{
    std::uint64_t h = hash_combine(kFnv1aOffset, cores);
    for_each_leaf(
        [&h](const char *, const auto &f) {
            using F = std::remove_cvref_t<decltype(f)>;
            // The filter closure cannot be hashed (see machine.h).
            if constexpr (!std::is_same_v<
                              F, decltype(SchemeConfig::make_filter)>) {
                h = hash_leaf(h, f);
            }
        },
        cfg);
    return h;
}

template <class Self, class IO>
void
CoreComplex::serialize(Self &self, IO &io)
{
    io.begin_section("core.mem");
    field(io, *self.l2_);
    field(io, *self.l1i_);
    field(io, *self.l1d_);
    field(io, *self.page_table_);
    field(io, *self.itlb_);
    field(io, *self.dtlb_);
    field(io, *self.stlb_);
    field(io, *self.walker_);
    io.begin_section("core.cpu");
    field(io, self.bp_);
    field(io, self.core_);
    field(io, self.frontend_);
    // Prefetchers/filters open their own sections (or none when
    // stateless); presence is configuration-determined, so save and
    // restore agree structurally.
    field(io, *self.l1d_pf_);
    if (self.l2_pf_ != nullptr) {
        field(io, *self.l2_pf_);
    }
    if (self.filter_ != nullptr) {
        field(io, *self.filter_);
    }
    io.begin_section("core.state");
    field(io, self.last_load_complete_);
    field(io, self.pgc_candidates_);
    field(io, self.pgc_dropped_);
    field(io, self.epoch_pgc_useful_);
    field(io, self.epoch_pgc_useless_);
    field(io, self.next_interval_);
    field(io, self.next_epoch_);
    field(io, self.window_start_);
    field(io, self.epoch_start_cycle_);
    field(io, self.epoch_start_insts_);
    field(io, self.last_snapshot_);
    io.begin_section("core.workload");
    if constexpr (kRestoring<IO>) {
        // step() consumes exactly one workload instruction per
        // retirement, so the retired count is the stream position. A
        // generator restores its saved state; a workload that saved
        // none replays to the position (trace files seek there in
        // O(1)).
        self.workload_->restore_state(io, self.core_.retired());
        // The audit cadence is derived, not saved, so that
        // audit-enabled and audit-off builds write the same snapshot
        // bytes.
        const InstCount every = self.cfg_.audit_interval_insts;
        self.next_audit_ =
            every == 0 ? 0 : (self.core_.retired() / every + 1) * every;
    } else {
        self.workload_->save_state(io);
    }
}

template void CoreComplex::serialize(const CoreComplex &, SnapshotWriter &);
template void CoreComplex::serialize(CoreComplex &, SnapshotReader &);

template <class Self, class IO>
void
Machine::serialize(Self &self, IO &io)
{
    io.begin_section("machine");
    field(io, self.steps_);
    for (auto &m : self.measure_start_) {
        field(io, m);
    }
    for (auto &m : self.at_budget_) {
        field(io, m);
    }
    io.begin_section("dram");
    field(io, *self.dram_);
    io.begin_section("llc");
    field(io, *self.llc_);
    for (const auto &core : self.cores_) {
        field(io, *core);
    }
}

std::string
Machine::save_snapshot() const
{
    SnapshotWriter w(config_fingerprint(cfg_, cores_.size()));
    serialize(*this, w);
    return w.finish();
}

void
Machine::restore_snapshot(const std::string &bytes)
{
    restore_snapshot(SnapshotImage(bytes));
}

void
Machine::restore_snapshot(const SnapshotImage &image)
{
    SnapshotReader r(image);
    const std::uint64_t want = config_fingerprint(cfg_, cores_.size());
    if (r.fingerprint() != want) {
        throw SnapshotError(SnapshotErrorKind::kConfigMismatch,
                            "snapshot was taken on a different machine "
                            "configuration");
    }
    serialize(*this, r);
    r.finish();
}

}  // namespace moka
