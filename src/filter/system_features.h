/**
 * @file
 * MOKA system features (paper §III-D2): saturating-counter weights
 * that join the perceptron sum only while the system is in the phase
 * the feature targets (e.g. sTLB Miss Rate above a threshold). They
 * let the filter learn that a delta useful in a TLB-quiet phase may
 * be harmful in a TLB-thrashing one.
 */
#ifndef MOKASIM_FILTER_SYSTEM_FEATURES_H
#define MOKASIM_FILTER_SYSTEM_FEATURES_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/sat_counter.h"

namespace moka {

struct AuditAccess;
class SnapshotReader;
class SnapshotWriter;

/** Observable system state sampled over a recent instruction window. */
struct SystemSnapshot
{
    double l1d_mpki = 0.0;
    double l1d_miss_rate = 0.0;
    double llc_mpki = 0.0;
    double llc_miss_rate = 0.0;
    double stlb_mpki = 0.0;
    double stlb_miss_rate = 0.0;
    double l1i_mpki = 0.0;
    double ipc = 0.0;
    double rob_occupancy = 0.0;         //!< mean ROB fill fraction
    unsigned inflight_l1d_misses = 0;   //!< outstanding L1D misses
    double pgc_accuracy = 1.0;          //!< running PGC accuracy
    bool pgc_accuracy_valid = false;    //!< enough resolved samples

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("l1d_mpki", s.l1d_mpki...);
        v("l1d_miss_rate", s.l1d_miss_rate...);
        v("llc_mpki", s.llc_mpki...);
        v("llc_miss_rate", s.llc_miss_rate...);
        v("stlb_mpki", s.stlb_mpki...);
        v("stlb_miss_rate", s.stlb_miss_rate...);
        v("l1i_mpki", s.l1i_mpki...);
        v("ipc", s.ipc...);
        v("rob_occupancy", s.rob_occupancy...);
        v("inflight_l1d_misses", s.inflight_l1d_misses...);
        v("pgc_accuracy", s.pgc_accuracy...);
        v("pgc_accuracy_valid", s.pgc_accuracy_valid...);
    }
};

/** The six system features of Table I. */
enum class SystemFeatureId : std::uint8_t {
    kL1dMpki,
    kL1dMissRate,
    kLlcMpki,
    kLlcMissRate,
    kStlbMpki,
    kStlbMissRate,
};

/** Activation rule + weight width for one system feature. */
struct SystemFeatureConfig
{
    SystemFeatureId id = SystemFeatureId::kStlbMpki;
    double threshold = 1.0;        //!< T_sf
    bool active_when_above = false; //!< '?' direction in SF?T_sf
    unsigned weight_bits = 5;
};

/**
 * Paper-guided default activation rule: MPKI features target
 * low-pressure phases (active below threshold), miss-rate features
 * target high-pressure phases (active above threshold) — matching
 * the DRIPPER rationale in §III-E.
 */
SystemFeatureConfig default_system_feature(SystemFeatureId id);

/** Printable name of @p id. */
const char *system_feature_name(SystemFeatureId id);

/** All six ids. */
const std::vector<SystemFeatureId> &all_system_features();

/** One instantiated system feature (rule + trained weight). */
class SystemFeature
{
  public:
    explicit SystemFeature(const SystemFeatureConfig &config)
        : cfg_(config), weight_(config.weight_bits)
    {
    }

    /** True when the feature participates under @p snap. */
    bool active(const SystemSnapshot &snap) const;

    /** Current weight value. */
    int weight() const { return weight_.value(); }

    /** Positive training. */
    void increment() { weight_.increment(); }

    /** Negative training. */
    void decrement() { weight_.decrement(); }

    /** Config echo. */
    const SystemFeatureConfig &config() const { return cfg_; }

    /** Storage cost in bits. */
    std::uint64_t storage_bits() const { return cfg_.weight_bits; }

    /** Serialize the trained weight. */
    void save_state(SnapshotWriter &w) const { serialize(*this, w); }
    /** Inverse of save_state on a same-config instance. */
    void restore_state(SnapshotReader &r) { serialize(*this, r); }

  private:
    friend struct AuditAccess;

    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    SystemFeatureConfig cfg_;  // LINT_SNAPSHOT_OK: config
    SignedSatCounter weight_;
};

}  // namespace moka

#endif  // MOKASIM_FILTER_SYSTEM_FEATURES_H
