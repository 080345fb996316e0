/**
 * @file
 * Machine assembly: N cores (Table IV configuration), each with a
 * private L1I/L1D/L2, TLB hierarchy, page table + walker, L1D
 * prefetcher and page-cross scheme, sharing an LLC and DRAM. This is
 * where the paper's page-cross prefetch flow (Fig. 5) lives: filter
 * decision -> TLB probe -> speculative walk -> prefetch fill, plus
 * all training hooks back into the filter.
 */
#ifndef MOKASIM_SIM_MACHINE_H
#define MOKASIM_SIM_MACHINE_H

#include <memory>
#include <vector>

#include "cache/cache.h"
#include "common/hot_path.h"
#include "core/branch_pred.h"
#include "core/core.h"
#include "core/frontend.h"
#include "dram/dram.h"
#include "filter/policies.h"
#include "prefetch/prefetcher.h"
#include "trace/workload.h"
#include "vmem/page_table.h"
#include "vmem/tlb.h"
#include "vmem/walker.h"

namespace moka {

struct AuditAccess;
class AuditReport;
class SnapshotImage;
class SnapshotReader;
class SnapshotWriter;

/** Full machine configuration (defaults = paper Table IV). */
struct MachineConfig
{
    CoreConfig core;
    FrontendConfig frontend;
    BranchPredConfig branch;
    CacheConfig l1i{"L1I", 64, 12, 5, 16, false};      // 48KB
    CacheConfig l1d{"L1D", 64, 8, 4, 8, true};         // 32KB, PCB bits
    CacheConfig l2{"L2C", 1024, 8, 10, 32, false};     // 512KB
    CacheConfig llc{"LLC", 2048, 16, 20, 64, false};   // 2MB (per core x N)
    TlbConfig itlb{"iTLB", 16, 4, 1, 4, 4};            // 64-entry
    TlbConfig dtlb{"dTLB", 16, 4, 1, 4, 4};            // 64-entry
    TlbConfig stlb{"sTLB", 128, 12, 8, 16, 8};         // 1536-entry
    WalkerConfig walker;
    VmemConfig vmem;
    DramConfig dram;
    L1dPrefetcherKind l1d_prefetcher = L1dPrefetcherKind::kBerti;
    L2PrefetcherKind l2_prefetcher = L2PrefetcherKind::kNone;
    SchemeConfig scheme;                       //!< page-cross policy
    std::uint64_t interval_insts = 4096;       //!< snapshot cadence
    std::uint64_t epoch_insts = 65536;         //!< adaptive epoch length
    //! invariant-audit cadence in audit-enabled builds (see
    //! common/check.h); 0 disables the periodic sweep
    std::uint64_t audit_interval_insts = 262144;

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("core", s.core...);
        v("frontend", s.frontend...);
        v("branch", s.branch...);
        v("l1i", s.l1i...);
        v("l1d", s.l1d...);
        v("l2", s.l2...);
        v("llc", s.llc...);
        v("itlb", s.itlb...);
        v("dtlb", s.dtlb...);
        v("stlb", s.stlb...);
        v("walker", s.walker...);
        v("vmem", s.vmem...);
        v("dram", s.dram...);
        v("l1d_prefetcher", s.l1d_prefetcher...);
        v("l2_prefetcher", s.l2_prefetcher...);
        v("scheme", s.scheme...);
        v("interval_insts", s.interval_insts...);
        v("epoch_insts", s.epoch_insts...);
        v("audit_interval_insts", s.audit_interval_insts...);
    }
};

/**
 * Per-core counters. All fields are raw cumulative counts so that a
 * measured region is simply `end - start` (operator-); rates are
 * derived by the accessors.
 */
struct RunMetrics
{
    InstCount instructions = 0;
    Cycle cycles = 0;
    AccessStats l1i, l1d, l2, llc;  //!< demand access/miss pairs
    AccessStats dtlb, stlb;
    AccessStats l2_walk;            //!< page-walker refs hitting the L2
    std::uint64_t l1d_writebacks = 0;
    std::uint64_t l1d_pf_lookups = 0;  //!< prefetch requests observed
    std::uint64_t pf_issued = 0;    //!< all prefetch fills
    std::uint64_t pf_useful = 0;
    std::uint64_t pf_useless = 0;
    std::uint64_t pgc_candidates = 0; //!< page-cross candidates seen
    std::uint64_t pgc_issued = 0;
    std::uint64_t pgc_useful = 0;
    std::uint64_t pgc_useless = 0;
    std::uint64_t pgc_dropped = 0;  //!< discarded by the policy/filter
    std::uint64_t demand_walks = 0;
    std::uint64_t spec_walks = 0;
    std::uint64_t walk_refs = 0;      //!< PTE memory references
    std::uint64_t dram_accesses = 0;  //!< machine-wide DRAM transfers
    std::uint64_t branch_mispredicts = 0;

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("instructions", s.instructions...);
        v("cycles", s.cycles...);
        v("l1i", s.l1i...);
        v("l1d", s.l1d...);
        v("l2", s.l2...);
        v("llc", s.llc...);
        v("dtlb", s.dtlb...);
        v("stlb", s.stlb...);
        v("l2_walk", s.l2_walk...);
        v("l1d_writebacks", s.l1d_writebacks...);
        v("l1d_pf_lookups", s.l1d_pf_lookups...);
        v("pf_issued", s.pf_issued...);
        v("pf_useful", s.pf_useful...);
        v("pf_useless", s.pf_useless...);
        v("pgc_candidates", s.pgc_candidates...);
        v("pgc_issued", s.pgc_issued...);
        v("pgc_useful", s.pgc_useful...);
        v("pgc_useless", s.pgc_useless...);
        v("pgc_dropped", s.pgc_dropped...);
        v("demand_walks", s.demand_walks...);
        v("spec_walks", s.spec_walks...);
        v("walk_refs", s.walk_refs...);
        v("dram_accesses", s.dram_accesses...);
        v("branch_mispredicts", s.branch_mispredicts...);
    }

    /** Instructions per cycle over the region. */
    double ipc() const
    {
        return cycles == 0 ? 0.0
                           : double(instructions) / double(cycles);
    }

    /** MPKI helpers over the region. */
    double l1i_mpki() const { return l1i.mpki(instructions); }
    double l1d_mpki() const { return l1d.mpki(instructions); }
    double l2_mpki() const { return l2.mpki(instructions); }
    double llc_mpki() const { return llc.mpki(instructions); }
    double dtlb_mpki() const { return dtlb.mpki(instructions); }
    double stlb_mpki() const { return stlb.mpki(instructions); }
    double walk_mpki() const { return l2_walk.mpki(instructions); }

    /** Prefetch accuracy over resolved prefetches. */
    double pf_accuracy() const
    {
        const auto r = pf_useful + pf_useless;
        return r == 0 ? 0.0 : double(pf_useful) / double(r);
    }

    /** Page-cross accuracy over resolved PGC prefetches. */
    double pgc_accuracy() const
    {
        const auto r = pgc_useful + pgc_useless;
        return r == 0 ? 0.0 : double(pgc_useful) / double(r);
    }

    RunMetrics operator-(const RunMetrics &o) const
    {
        return field_diff(*this, o);
    }
};

/** One core with its private memory-side structures. */
class CoreComplex : public CacheListener
{
  public:
    /**
     * @param cfg      machine configuration
     * @param shared   next level below the private L2 (LLC)
     * @param workload instruction stream (ownership taken)
     * @param seed     per-core seed (frame allocator etc.)
     */
    CoreComplex(const MachineConfig &cfg, Cache *llc,
                WorkloadPtr workload, std::uint64_t seed);
    ~CoreComplex() override;

    /** Execute one instruction. */
    SIM_HOT void step();

    /** Instructions retired so far. */
    InstCount retired() const { return core_.retired(); }

    /** Cycle of the youngest retirement (the core's clock). */
    Cycle now() const { return core_.last_retire(); }

    /** Snapshot cumulative counters into a RunMetrics. */
    SIM_COLD RunMetrics metrics() const;

    /** L1D cache (tests/diagnostics). */
    const Cache &l1d() const { return *l1d_; }
    /** sTLB (tests/diagnostics). */
    const Tlb &stlb() const { return *stlb_; }
    /** Active page-cross filter, may be null. */
    const PageCrossFilter *filter() const { return filter_.get(); }

    // CacheListener (L1D lifetime events):
    void on_pgc_first_use(PhysAddr block_paddr) override;
    void on_eviction(PhysAddr block_paddr, bool prefetched, bool pgc,
                     bool used) override;

    /**
     * Run every structural auditor over this core's private
     * structures (caches, TLBs vs page table, walker, filter, and the
     * PCB<->pUB cross-check). Always compiled; the machine invokes it
     * periodically only in audit-enabled builds.
     */
    SIM_COLD void audit(AuditReport &report) const;

    /**
     * Serialize every architectural structure in this core complex.
     * The workload itself is not serialized: its replay position is
     * the retired-instruction count, and restore_state fast-forwards
     * a freshly built workload to it (CoreComplex::step consumes
     * exactly one workload instruction per retirement).
     */
    SIM_COLD void save_state(SnapshotWriter &w) const;
    /** Inverse of save_state on a same-config instance. */
    SIM_COLD void restore_state(SnapshotReader &r);

  private:
    friend struct AuditAccess;
    struct Translated
    {
        PhysAddr paddr{};
        PhysAddr page_base{};
        bool large = false;
        Cycle done = 0;
    };

    Translated translate_demand(VirtAddr vaddr, Cycle now);
    void handle_memory(const TraceInst &inst, Cycle dispatch,
                       Cycle &complete);
    void run_l1d_prefetcher(const PrefetchContext &ctx,
                            const Translated &trigger);
    void process_candidate(const PrefetchRequest &req,
                           const Translated &trigger, Cycle now);
    void run_l2_prefetcher(PhysAddr trigger_paddr, Addr pc, Cycle now);
    //! interval/epoch cadence work: amortized over interval_insts
    //! accesses, so it is exempt from the per-access contract
    SIM_COLD void interval_tick();
    SIM_COLD SystemSnapshot snapshot() const;

    // LINT_SNAPSHOT_OK: config, checked via the snapshot fingerprint
    const MachineConfig &cfg_;
    // LINT_SNAPSHOT_OK: collaborator, owned by the machine
    Cache *llc_shared_;  //!< shared LLC (observed for snapshots)

    // Memory-side structures (construction order matters).
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<Cache> l1i_;
    std::unique_ptr<Cache> l1d_;
    std::unique_ptr<PageTable> page_table_;
    std::unique_ptr<Tlb> itlb_;
    std::unique_ptr<Tlb> dtlb_;
    std::unique_ptr<Tlb> stlb_;
    std::unique_ptr<PageWalker> walker_;

    BranchPredictor bp_;
    Core core_;
    Frontend frontend_;
    // LINT_SNAPSHOT_OK: replayed, fast-forwarded to core_.retired()
    WorkloadPtr workload_;

    PrefetcherPtr l1d_pf_;
    PrefetcherPtr l2_pf_;
    FilterPtr filter_;

    Cycle last_load_complete_ = 0;  //!< dependent-load serialization
    // LINT_SNAPSHOT_OK: scratch, cleared before every use
    std::vector<PrefetchRequest> pf_buffer_;
    // LINT_SNAPSHOT_OK: scratch, cleared before every use
    std::vector<PrefetchRequest> l2_pf_buffer_;

    // Page-cross bookkeeping.
    std::uint64_t pgc_candidates_ = 0;
    std::uint64_t pgc_dropped_ = 0;
    std::uint64_t epoch_pgc_useful_ = 0;
    std::uint64_t epoch_pgc_useless_ = 0;

    // Interval/epoch state.
    InstCount next_interval_ = 0;
    InstCount next_epoch_ = 0;
    // LINT_SNAPSHOT_OK: derived from the retired count on restore
    InstCount next_audit_ = 0;  //!< audit-enabled builds only
    struct Window
    {
        AccessStats l1d, llc, stlb, l1i;
        InstCount insts = 0;
        Cycle cycle = 0;

        template <class V, class... S>
        static constexpr void visit_fields(V &&v, S &...s)
        {
            v("l1d", s.l1d...);
            v("llc", s.llc...);
            v("stlb", s.stlb...);
            v("l1i", s.l1i...);
            v("insts", s.insts...);
            v("cycle", s.cycle...);
        }
    } window_start_;
    Cycle epoch_start_cycle_ = 0;
    InstCount epoch_start_insts_ = 0;
    SystemSnapshot last_snapshot_;
};

/**
 * Cooperative per-step hook for Machine::run. The job engine chains a
 * watchdog (step-budget + wall-clock heartbeat) and the fault
 * injector through this interface; a hook cancels the run by
 * throwing (typically a classified JobError), which the engine
 * catches and maps onto the failure taxonomy.
 */
class RunTickHook
{
  public:
    virtual ~RunTickHook() = default;

    /**
     * Called once per machine step (one instruction on one core).
     * @p steps counts from 1 within the machine's lifetime, across
     * run() calls, so budgets cover warmup + measurement together.
     */
    virtual void on_tick(std::uint64_t steps) = 0;
};

/**
 * Fans one Machine::run hook slot out to several hooks in add()
 * order (watchdog, fault injector, telemetry sampler). Non-owning;
 * null hooks are skipped at add() time so a chain of zero or one
 * hook costs nothing extra per tick.
 */
class TickHookChain : public RunTickHook
{
  public:
    /** Append @p hook (ignored when null). */
    void add(RunTickHook *hook)
    {
        if (hook != nullptr) {
            hooks_.push_back(hook);
        }
    }

    /** The chain itself, or the single hook / null when degenerate. */
    RunTickHook *as_hook()
    {
        if (hooks_.empty()) {
            return nullptr;
        }
        return hooks_.size() == 1 ? hooks_.front() : this;
    }

    void on_tick(std::uint64_t steps) override
    {
        for (RunTickHook *hook : hooks_) {
            // LINT_HOT_OK: the engine's fault/watchdog/telemetry seam;
            // the chain only exists when >= 2 hooks are installed, and
            // measured perf runs install none (run() sees nullptr).
            hook->on_tick(steps);
        }
    }

  private:
    std::vector<RunTickHook *> hooks_;
};

/** The machine: cores + shared LLC + DRAM. */
class Machine
{
  public:
    /** One workload per core. */
    Machine(const MachineConfig &cfg, std::vector<WorkloadPtr> workloads);
    ~Machine();

    /**
     * Run until every core has retired at least @p insts_per_core
     * instructions past its current count (cores that finish early
     * keep replaying, per the paper's multi-core methodology).
     * Records each core's cycle count at its own crossing point.
     *
     * @p hook, when non-null, is invoked after every step and may
     * throw to cancel the run (watchdog deadline, fault injection).
     * The machine stays destructible after such a cancellation but
     * its counters describe a partial run.
     */
    SIM_HOT void run(InstCount insts_per_core, RunTickHook *hook = nullptr);

    /** Number of cores. */
    std::size_t num_cores() const { return cores_.size(); }

    /** Cumulative metrics of core @p i. */
    RunMetrics metrics(std::size_t i) const { return cores_[i]->metrics(); }

    /** Begin a measured region (after warmup). */
    void start_measurement();

    /**
     * Metrics of the measured region for core @p i: counters since
     * start_measurement(), with cycles taken at the core's own
     * crossing of the instruction budget in the last run() call.
     */
    RunMetrics measured(std::size_t i) const;

    /** Core access (tests/diagnostics). */
    CoreComplex &core(std::size_t i) { return *cores_[i]; }
    const CoreComplex &core(std::size_t i) const { return *cores_[i]; }

    /** Lifetime step count (one instruction on one core per step). */
    std::uint64_t steps() const { return steps_; }

    /** Configuration echo. */
    const MachineConfig &config() const { return cfg_; }

    /** Audit the shared levels (LLC, DRAM) and every core. */
    SIM_COLD void audit(AuditReport &report) const;

    /**
     * Serialize the whole machine (DRAM, LLC, every core complex and
     * the run bookkeeping) into a snapshot stamped with this
     * configuration's fingerprint.
     */
    SIM_COLD std::string save_snapshot() const;

    /**
     * Restore a validated snapshot image produced by save_snapshot()
     * on an identical configuration. The machine must be freshly built
     * (workloads unconsumed); they are fast-forwarded to the snapshot
     * position.
     *
     * @throws SnapshotError kConfigMismatch when the fingerprint
     *         differs, kMalformed when a section does not decode.
     */
    SIM_COLD void restore_snapshot(const SnapshotImage &image);

    /** Validate @p bytes as a SnapshotImage, then restore it. */
    SIM_COLD void restore_snapshot(const std::string &bytes);

  private:
    MachineConfig cfg_;
    std::unique_ptr<Dram> dram_;
    std::unique_ptr<Cache> llc_;
    std::vector<std::unique_ptr<CoreComplex>> cores_;
    std::vector<RunMetrics> measure_start_;
    std::vector<RunMetrics> at_budget_;  //!< metrics at own crossing
    //! run() scratch, sized once at construction (rule L10)
    std::vector<InstCount> run_target_;
    // uint8_t, not the bit-packed vector<bool>: the run loop reads
    // this per step and the proxy-object bit math costs more than the
    // byte it saves (rule L19)
    std::vector<std::uint8_t> run_crossed_;
    std::uint64_t steps_ = 0;            //!< lifetime step count (hooks)
};

/** Table IV machine configuration for @p cores cores. */
MachineConfig default_config(unsigned cores = 1);

/**
 * Order-sensitive FNV/mix hash over the core count and every field
 * MachineConfig::visit_fields reaches, except the scheme's
 * `make_filter` closure, which cannot be hashed: the scheme's name,
 * policy and flags stand in for the filter it builds, so two schemes
 * with one name but different filter configurations collide. Apart
 * from that gap, configurations with equal fingerprints build
 * machines whose snapshots are interchangeable.
 */
std::uint64_t config_fingerprint(const MachineConfig &cfg,
                                 std::size_t cores);

/**
 * Version of the simulated behaviour. Bump it with any change that
 * moves a simulated number: the warmup-snapshot and job-result keys
 * fold it in, so a store never serves what an older model computed.
 * tests/test_layout_equivalence.cc ties it to the metrics goldens, so
 * re-pinning a golden without a bump fails.
 */
inline constexpr std::uint32_t kModelVersion = 1;

}  // namespace moka

#endif  // MOKASIM_SIM_MACHINE_H
