/**
 * @file
 * The MOKA framework proper: the PageCrossFilter interface the
 * machine talks to, and MokaFilter — the configurable perceptron
 * page-cross filter combining program features, system features,
 * vUB/pUB training and adaptive thresholding (paper §III).
 */
#ifndef MOKASIM_FILTER_MOKA_H
#define MOKASIM_FILTER_MOKA_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/hot_path.h"
#include "filter/adaptive_threshold.h"
#include "filter/features.h"
#include "filter/system_features.h"
#include "filter/update_buffer.h"

namespace moka {

struct AuditAccess;
class SnapshotReader;
class SnapshotWriter;

/**
 * Snapshot of a page-cross filter's internal state for the telemetry
 * sampler (telemetry surface (b)): current T_a, the perceptron-sum
 * distribution, vUB/pUB reward-punish counts and per-feature weight
 * contribution. Count fields are cumulative (the sampler computes
 * per-epoch deltas) and move only while telemetry is armed; `valid`
 * is false for filters with nothing to report (Permit/Discard).
 */
struct FilterTelemetry
{
    //! perceptron-sum histogram bucket upper bounds; one overflow
    //! bucket on top (covers the T_a clamp range t_min=-8..t_max=14)
    static constexpr int kSumBounds[7] = {-12, -8, -4, 0, 4, 8, 12};
    static constexpr std::size_t kSumBuckets = 8;
    static constexpr std::size_t kMaxFeatures = 8;

    bool valid = false;
    int t_a = 0;               //!< current activation threshold
    int level = 0;             //!< 0 low / 1 mid / 2 high
    bool pgc_disabled = false; //!< extreme-LLC-pressure kill switch
    std::uint64_t decisions = 0;   //!< full permit() evaluations
    std::uint64_t permits = 0;     //!< decisions above T_a
    std::uint64_t vub_rewards = 0; //!< vUB hits (false-negative fixes)
    std::uint64_t pub_rewards = 0; //!< pUB first-use rewards
    std::uint64_t pub_punishes = 0; //!< pUB unused-eviction punishes
    std::int64_t sum_total = 0;    //!< cumulative w_final over decisions
    std::uint64_t sum_hist[kSumBuckets] = {};  //!< w_final distribution
    std::size_t num_features = 0;  //!< program + specialized features
    //! cumulative |weight| contribution per feature slot
    std::uint64_t feature_abs[kMaxFeatures] = {};
    ThresholdTelemetry threshold;  //!< adaptive-threshold actions

    /** Histogram bucket index of perceptron sum @p w_final. */
    static std::size_t sum_bucket(int w_final)
    {
        for (std::size_t i = 0; i < kSumBuckets - 1; ++i) {
            if (w_final <= kSumBounds[i]) {
                return i;
            }
        }
        return kSumBuckets - 1;
    }
};

/**
 * Interface between the machine and a Page-Cross Filter. The machine
 * calls permit() for every page-cross prefetch candidate and routes
 * L1D lifetime events back for training.
 */
class PageCrossFilter
{
  public:
    virtual ~PageCrossFilter() = default;

    /**
     * Predict whether the page-cross prefetch should be issued.
     *
     * @param trigger_pc    PC of the trigger load
     * @param trigger_vaddr VA of the trigger access
     * @param delta         block delta used by the prefetcher
     * @param target_vaddr  block-aligned prefetch target VA
     * @param snap          current system state
     */
    SIM_HOT virtual bool permit(Addr trigger_pc, VirtAddr trigger_vaddr,
                                std::int64_t delta, VirtAddr target_vaddr,
                                const SystemSnapshot &snap,
                                std::uint64_t meta = 0) = 0;

    /** Demand data access in program order (feeds feature history). */
    virtual void on_demand_access(Addr pc, VirtAddr vaddr)
    {
        (void)pc; (void)vaddr;
    }

    /** L1D demand miss (vUB false-negative check). */
    virtual void on_l1d_demand_miss(VirtAddr vaddr) { (void)vaddr; }

    /**
     * The last permitted prefetch was issued and translated: hand the
     * pending (virtual-keyed) record across to the physical side.
     */
    virtual void on_pgc_issued(VirtAddr target_vaddr, PhysAddr target_paddr)
    {
        (void)target_vaddr; (void)target_paddr;
    }

    /**
     * The last permitted prefetch was dropped after the decision
     * (block already resident/in flight): forget the pending record.
     */
    virtual void on_pgc_abandoned() {}

    /** A PCB block served its first demand hit (positive training). */
    virtual void on_pgc_first_use(PhysAddr block_paddr)
    {
        (void)block_paddr;
    }

    /** A PCB block was evicted; @p used: served >=1 demand access. */
    virtual void on_pgc_eviction(PhysAddr block_paddr, bool used)
    {
        (void)block_paddr; (void)used;
    }

    /** Periodic intra-epoch check (adaptive thresholding). */
    virtual void on_interval(const SystemSnapshot &snap) { (void)snap; }

    /** Epoch boundary (adaptive thresholding). */
    virtual void on_epoch(const EpochInfo &info) { (void)info; }

    /** Identifier for reports. */
    virtual const std::string &name() const = 0;

    /** Hardware budget in bits (Table III audit). */
    virtual std::uint64_t storage_bits() const { return 0; }

    /**
     * Internal-state snapshot for the telemetry sampler; default is
     * an invalid (empty) snapshot for stateless policies.
     */
    virtual FilterTelemetry telemetry() const { return {}; }

    /**
     * Serialize learned state. The default is a no-op pair: correct
     * only for genuinely stateless policies and test doubles; every
     * learning filter overrides both.
     */
    virtual void save_state(SnapshotWriter &w) const { (void)w; }

    /** Inverse of save_state on a same-config instance. */
    virtual void restore_state(SnapshotReader &r) { (void)r; }
};

using FilterPtr = std::unique_ptr<PageCrossFilter>;

/** Full configuration of a MokaFilter instance. */
struct MokaConfig
{
    std::string name = "moka";
    std::vector<ProgramFeatureId> program_features;
    //! optional prefetcher-specialized features (SIII-D1 extension)
    std::vector<SpecializedFeatureId> specialized_features;
    std::vector<SystemFeatureConfig> system_features;
    unsigned wt_entries = 1024;  //!< entries per weight table
    unsigned weight_bits = 5;
    unsigned vub_entries = 4;
    unsigned pub_entries = 128;
    ThresholdConfig threshold;
};

/** The MOKA-built perceptron Page-Cross Filter. */
class MokaFilter : public PageCrossFilter
{
  public:
    explicit MokaFilter(const MokaConfig &config);

    bool permit(Addr trigger_pc, VirtAddr trigger_vaddr, std::int64_t delta,
                VirtAddr target_vaddr, const SystemSnapshot &snap,
                std::uint64_t meta = 0) override;

    void on_demand_access(Addr pc, VirtAddr vaddr) override;
    void on_l1d_demand_miss(VirtAddr vaddr) override;
    void on_pgc_issued(VirtAddr target_vaddr, PhysAddr target_paddr) override;
    void on_pgc_abandoned() override { pending_valid_ = false; }
    void on_pgc_first_use(PhysAddr block_paddr) override;
    void on_pgc_eviction(PhysAddr block_paddr, bool used) override;
    void on_interval(const SystemSnapshot &snap) override;
    void on_epoch(const EpochInfo &info) override;

    const std::string &name() const override { return cfg_.name; }
    std::uint64_t storage_bits() const override;

    /** Current activation threshold (tests/diagnostics). */
    int activation_threshold() const { return thresholds_.threshold(); }

    /** Config echo. */
    const MokaConfig &config() const { return cfg_; }

    FilterTelemetry telemetry() const override;

    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    friend struct AuditAccess;

    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    /**
     * One entry of the feature-slot plan, precomputed at config time:
     * which evaluator (program vs specialized) and which feature id
     * slot i uses. make_record() walks this flat plan instead of
     * branching over two config vectors per access.
     */
    struct FeatureSlot
    {
        bool specialized = false;
        std::uint16_t id = 0;
    };

    template <class AddrT>
    void train(const DecisionRecordT<AddrT> &rec, bool positive);
    VirtDecisionRecord make_record(VirtAddr block, const FeatureInput &in,
                                   const SystemSnapshot &snap) const;

    /** Weight of table @p table at @p index (arena gather). */
    int weight_at(std::size_t table, std::uint32_t index) const
    {
        return weights_[(table << index_bits_) + index];
    }

    MokaConfig cfg_;  // LINT_SNAPSHOT_OK: config
    FeatureExtractor extractor_;
    // Flat weight arena: all per-feature tables share entries and
    // width, so they pack table-major into one contiguous int16
    // array; slot i's table spans [i << index_bits_, (i+1) <<
    // index_bits_). permit()'s sum is then a gather over one array
    // with no per-table object indirection.
    std::vector<FeatureSlot> slots_;  // LINT_SNAPSHOT_OK: config-derived
    std::vector<std::int16_t> weights_;  //!< arena, table-major
    unsigned index_bits_ = 0;  // LINT_SNAPSHOT_OK: config
    std::int16_t wmin_ = 0;    // LINT_SNAPSHOT_OK: rail from config
    std::int16_t wmax_ = 0;    // LINT_SNAPSHOT_OK: rail from config
    std::vector<SystemFeature> system_;    //!< instantiated system features
    VirtUpdateBuffer vub_;   //!< discarded candidates, virtual keys
    PhysUpdateBuffer pub_;   //!< issued candidates, physical keys
    AdaptiveThreshold thresholds_;
    //! permit()'d (virtual key), awaiting on_pgc_issued() to re-key
    VirtDecisionRecord pending_;
    bool pending_valid_ = false;
    FilterTelemetry tel_;      //!< counter part of telemetry()
};

}  // namespace moka

#endif  // MOKASIM_FILTER_MOKA_H
