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
    page_table_ = std::make_unique<PageTable>(vmem);
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
    while (remaining > 0) {
        // Step the core whose clock is furthest behind so shared-level
        // contention interleaves in rough time order. Finished cores
        // keep replaying (paper §IV-A2) until all cores cross.
        std::size_t pick = 0;
        Cycle best = ~Cycle{0};
        for (std::size_t i = 0; i < cores_.size(); ++i) {
            if (cores_[i]->now() < best) {
                best = cores_[i]->now();
                pick = i;
            }
        }
        cores_[pick]->step();
        ++steps_;
        if (hook != nullptr) {
            // LINT_HOT_OK: the tick hook is the engine's fault/
            // watchdog/telemetry seam; it is null in measured perf
            // runs, and hooks guard their own slow paths (rule L12).
            hook->on_tick(steps_);
        }
        if (crossed[pick] == 0 &&
            cores_[pick]->retired() >= target[pick]) {
            crossed[pick] = 1;
            at_budget_[pick] = cores_[pick]->metrics();
            --remaining;
        }
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

void
CoreComplex::save_state(SnapshotWriter &w) const
{
    w.begin_section("core.mem");
    l2_->save_state(w);
    l1i_->save_state(w);
    l1d_->save_state(w);
    page_table_->save_state(w);
    itlb_->save_state(w);
    dtlb_->save_state(w);
    stlb_->save_state(w);
    walker_->save_state(w);
    w.begin_section("core.cpu");
    bp_.save_state(w);
    core_.save_state(w);
    frontend_.save_state(w);
    // Prefetchers/filters open their own sections (or none when
    // stateless); presence is configuration-determined, so save and
    // restore agree structurally.
    l1d_pf_->save_state(w);
    if (l2_pf_ != nullptr) {
        l2_pf_->save_state(w);
    }
    if (filter_ != nullptr) {
        filter_->save_state(w);
    }
    w.begin_section("core.state");
    w.put_u64(last_load_complete_);
    w.put_u64(pgc_candidates_);
    w.put_u64(pgc_dropped_);
    w.put_u64(epoch_pgc_useful_);
    w.put_u64(epoch_pgc_useless_);
    w.put_u64(next_interval_);
    w.put_u64(next_epoch_);
    put_fields(w, window_start_);
    w.put_u64(epoch_start_cycle_);
    w.put_u64(epoch_start_insts_);
    put_fields(w, last_snapshot_);
}

void
CoreComplex::restore_state(SnapshotReader &r)
{
    r.begin_section("core.mem");
    l2_->restore_state(r);
    l1i_->restore_state(r);
    l1d_->restore_state(r);
    page_table_->restore_state(r);
    itlb_->restore_state(r);
    dtlb_->restore_state(r);
    stlb_->restore_state(r);
    walker_->restore_state(r);
    r.begin_section("core.cpu");
    bp_.restore_state(r);
    core_.restore_state(r);
    frontend_.restore_state(r);
    l1d_pf_->restore_state(r);
    if (l2_pf_ != nullptr) {
        l2_pf_->restore_state(r);
    }
    if (filter_ != nullptr) {
        filter_->restore_state(r);
    }
    r.begin_section("core.state");
    last_load_complete_ = r.get_u64();
    pgc_candidates_ = r.get_u64();
    pgc_dropped_ = r.get_u64();
    epoch_pgc_useful_ = r.get_u64();
    epoch_pgc_useless_ = r.get_u64();
    next_interval_ = r.get_u64();
    next_epoch_ = r.get_u64();
    get_fields(r, window_start_);
    epoch_start_cycle_ = r.get_u64();
    epoch_start_insts_ = r.get_u64();
    get_fields(r, last_snapshot_);
    // Fast-forward the fresh workload to the snapshot position:
    // step() consumes exactly one workload instruction per
    // retirement, so the retired count IS the replay position.
    // Seekable workloads (trace files) re-position in O(1).
    workload_->skip(core_.retired());
    // The audit cadence is derived, not saved, so that audit-enabled
    // and audit-off builds write the same snapshot bytes.
    const InstCount every = cfg_.audit_interval_insts;
    next_audit_ = every == 0 ? 0 : (core_.retired() / every + 1) * every;
}

std::string
Machine::save_snapshot() const
{
    SnapshotWriter w(config_fingerprint(cfg_, cores_.size()));
    w.begin_section("machine");
    w.put_u64(steps_);
    for (const RunMetrics &m : measure_start_) {
        put_fields(w, m);
    }
    for (const RunMetrics &m : at_budget_) {
        put_fields(w, m);
    }
    w.begin_section("dram");
    dram_->save_state(w);
    w.begin_section("llc");
    llc_->save_state(w);
    for (const auto &core : cores_) {
        core->save_state(w);
    }
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
    r.begin_section("machine");
    steps_ = r.get_u64();
    for (RunMetrics &m : measure_start_) {
        get_fields(r, m);
    }
    for (RunMetrics &m : at_budget_) {
        get_fields(r, m);
    }
    r.begin_section("dram");
    dram_->restore_state(r);
    r.begin_section("llc");
    llc_->restore_state(r);
    for (const auto &core : cores_) {
        core->restore_state(r);
    }
    r.finish();
}

}  // namespace moka
