/**
 * @file
 * MOKA's epoch-based adaptive thresholding scheme (paper §III-C3,
 * Fig. 8). Intra-epoch, extreme cache/ROB pressure snaps the
 * activation threshold T_a to medium or high values (or disables
 * page-cross prefetching outright); at epoch boundaries, page-cross
 * accuracy and IPC trends nudge T_a.
 */
#ifndef MOKASIM_FILTER_ADAPTIVE_THRESHOLD_H
#define MOKASIM_FILTER_ADAPTIVE_THRESHOLD_H

#include <cstdint>

#include "filter/system_features.h"

namespace moka {

struct AuditAccess;
class SnapshotReader;
class SnapshotWriter;

/** Threshold levels and trip points. */
struct ThresholdConfig
{
    bool adaptive = true;  //!< false: hold t_static forever
    int t_static = 2;      //!< static threshold (PPF-style designs)

    int t_low = -2;        //!< aggressive level
    int t_mid = 3;         //!< medium level t_m
    int t_high = 10;       //!< conservative level t_h
    int t_min = -8;        //!< clamp range of T_a
    int t_max = 14;

    double acc_low = 0.30;   //!< T1: force t_high below this accuracy
    double acc_mid = 0.55;   //!< T2: force t_mid below this accuracy
    double l1i_mpki_threshold = 4.0;     //!< T_L1i (L1I pressure)
    double rob_pressure_threshold = 0.85; //!< ROB occupancy fraction
    unsigned inflight_threshold = 10;    //!< in-flight L1D misses
    double llc_missrate_extreme = 0.93;  //!< disable PGC above these...
    double llc_mpki_extreme = 160.0;     //!< ...two together
};

/** Epoch summary handed to the scheme at epoch boundaries. */
struct EpochInfo
{
    double pgc_accuracy = 0.0;  //!< useful/(useful+useless) this epoch
    bool accuracy_valid = false; //!< enough resolved PGC prefetches
    double ipc = 0.0;

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("pgc_accuracy", s.pgc_accuracy...);
        v("accuracy_valid", s.accuracy_valid...);
        v("ipc", s.ipc...);
    }
};

/**
 * Cumulative counts of the adaptive-threshold control actions, for
 * the telemetry sampler (counts only move while telemetry is armed;
 * see telemetry/gate.h). Public fields without trailing underscores:
 * this is a passive snapshot surface, not a stateful class.
 */
struct ThresholdTelemetry
{
    std::uint64_t rob_clamps = 0;      //!< intra-epoch ROB-pressure clamps
    std::uint64_t acc_clamps = 0;      //!< intra-epoch accuracy clamps
    std::uint64_t l1i_clamps = 0;      //!< intra-epoch L1I-pressure clamps
    std::uint64_t disable_intervals = 0;  //!< intervals with PGC disabled
    std::uint64_t epoch_acc_clamps = 0;   //!< epoch accuracy trip points
    std::uint64_t nudges_up = 0;       //!< epoch trend: T_a tightened
    std::uint64_t nudges_down = 0;     //!< epoch trend: T_a relaxed
    std::uint64_t ipc_drop_clamps = 0; //!< epoch IPC-drop forcing t_mid

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("rob_clamps", s.rob_clamps...);
        v("acc_clamps", s.acc_clamps...);
        v("l1i_clamps", s.l1i_clamps...);
        v("disable_intervals", s.disable_intervals...);
        v("epoch_acc_clamps", s.epoch_acc_clamps...);
        v("nudges_up", s.nudges_up...);
        v("nudges_down", s.nudges_down...);
        v("ipc_drop_clamps", s.ipc_drop_clamps...);
    }
};

/** See file comment. */
class AdaptiveThreshold
{
  public:
    explicit AdaptiveThreshold(const ThresholdConfig &config);

    /** Current activation threshold T_a. */
    int threshold() const { return ta_; }

    /** True while extreme LLC pressure disables page-cross prefetching. */
    bool pgc_disabled() const { return pgc_disabled_; }

    /**
     * Discretized T_a level for timeseries plots: 0 while T_a sits at
     * or below t_low, 1 below t_high, 2 at or above t_high.
     */
    int level() const
    {
        if (ta_ >= cfg_.t_high) {
            return 2;
        }
        return ta_ <= cfg_.t_low ? 0 : 1;
    }

    /** Control-action counters (moves only while telemetry is armed). */
    const ThresholdTelemetry &telemetry_counters() const { return tel_; }

    /** Intra-epoch check against extreme behaviours (paper step 2). */
    void on_interval(const SystemSnapshot &snap);

    /** Epoch-boundary update (paper steps 3-5). */
    void on_epoch(const EpochInfo &info);

    /** Config echo. */
    const ThresholdConfig &config() const { return cfg_; }

    /** Serialize T_a, the disable latch and epoch memory. */
    void save_state(SnapshotWriter &w) const { serialize(*this, w); }
    /** Inverse of save_state on a same-config instance. */
    void restore_state(SnapshotReader &r) { serialize(*this, r); }

  private:
    friend struct AuditAccess;

    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    void clamp();

    ThresholdConfig cfg_;  // LINT_SNAPSHOT_OK: config
    int ta_;
    bool pgc_disabled_ = false;
    bool have_prev_ = false;
    EpochInfo prev_;
    ThresholdTelemetry tel_;
};

}  // namespace moka

#endif  // MOKASIM_FILTER_ADAPTIVE_THRESHOLD_H
