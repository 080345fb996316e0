#include "filter/adaptive_threshold.h"

#include "snapshot/snapshot.h"

#include <algorithm>

#include "telemetry/gate.h"

namespace moka {

AdaptiveThreshold::AdaptiveThreshold(const ThresholdConfig &config)
    : cfg_(config), ta_(config.adaptive ? config.t_low : config.t_static)
{
    // Adaptive filters start at the aggressive level so the weights
    // get training exposure; the intra-epoch rules clamp T_a to
    // t_high within one interval if that exploration goes badly.
}

void
AdaptiveThreshold::clamp()
{
    ta_ = std::clamp(ta_, cfg_.t_min, cfg_.t_max);
}

void
AdaptiveThreshold::on_interval(const SystemSnapshot &snap)
{
    if (!cfg_.adaptive) {
        return;
    }

    // Extreme LLC pressure: disable page-cross prefetching entirely.
    // vUB keeps observing false negatives, so the filter can re-arm
    // itself once pressure subsides (paper: "page-cross prefetching
    // might be activated again thanks to vUB's operation").
    pgc_disabled_ = snap.llc_miss_rate > cfg_.llc_missrate_extreme &&
                    snap.llc_mpki > cfg_.llc_mpki_extreme;

    // (1) High ROB pressure with many in-flight L1D misses: only
    // very-high-confidence page-cross prefetches may pass.
    const bool rob_clamp =
        snap.rob_occupancy > cfg_.rob_pressure_threshold &&
        snap.inflight_l1d_misses > cfg_.inflight_threshold;
    if (rob_clamp) {
        ta_ = std::max(ta_, cfg_.t_high);
    }
    // (2) Running PGC accuracy collapsed below T1.
    const bool acc_clamp =
        snap.pgc_accuracy_valid && snap.pgc_accuracy < cfg_.acc_low;
    if (acc_clamp) {
        ta_ = std::max(ta_, cfg_.t_high);
    }
    // (3) L1I pressure: avoid contending with demand instruction
    // accesses in the L2C.
    const bool l1i_clamp = snap.l1i_mpki > cfg_.l1i_mpki_threshold;
    if (l1i_clamp) {
        ta_ = std::max(ta_, cfg_.t_mid);
    }
    clamp();

    if (telemetry_enabled()) {
        tel_.rob_clamps += rob_clamp ? 1 : 0;
        tel_.acc_clamps += acc_clamp ? 1 : 0;
        tel_.l1i_clamps += l1i_clamp ? 1 : 0;
        tel_.disable_intervals += pgc_disabled_ ? 1 : 0;
    }
}

void
AdaptiveThreshold::on_epoch(const EpochInfo &info)
{
    if (!cfg_.adaptive) {
        return;
    }

    if (info.accuracy_valid) {
        // Force conservative levels below the accuracy trip points.
        if (info.pgc_accuracy < cfg_.acc_low) {
            ta_ = std::max(ta_, cfg_.t_high);
            if (telemetry_enabled()) {
                ++tel_.epoch_acc_clamps;
            }
        } else if (info.pgc_accuracy < cfg_.acc_mid) {
            ta_ = std::max(ta_, cfg_.t_mid);
            if (telemetry_enabled()) {
                ++tel_.epoch_acc_clamps;
            }
        }
        // Accuracy trend between consecutive epochs nudges T_a by one.
        // NOTE: the paper's text says "increase (decrease) in accuracy
        // increases (decreases) Ta"; taken literally that starves
        // perfectly accurate filters (Ta ratchets up to t_max) and
        // rewards collapsing accuracy, contradicting the same
        // figure's low-accuracy clamps. We implement the consistent
        // feedback direction: improving accuracy relaxes Ta,
        // degrading accuracy tightens it (see DESIGN.md).
        if (have_prev_ && prev_.accuracy_valid) {
            if (info.pgc_accuracy > prev_.pgc_accuracy) {
                --ta_;
                if (telemetry_enabled()) {
                    ++tel_.nudges_down;
                }
            } else if (info.pgc_accuracy < prev_.pgc_accuracy) {
                ++ta_;
                if (telemetry_enabled()) {
                    ++tel_.nudges_up;
                }
            }
        }
    }
    // IPC drop between consecutive epochs forces at least t_mid
    // (paper step 5).
    if (have_prev_ && info.ipc < prev_.ipc && ta_ < cfg_.t_mid) {
        ta_ = cfg_.t_mid;
        if (telemetry_enabled()) {
            ++tel_.ipc_drop_clamps;
        }
    }
    clamp();
    prev_ = info;
    have_prev_ = true;
}

template <class Self, class IO>
void
AdaptiveThreshold::serialize(Self &self, IO &io)
{
    io.begin_section("filter.threshold");
    field_as<std::int64_t>(io, self.ta_);
    field(io, self.pgc_disabled_);
    field(io, self.have_prev_);
    field(io, self.prev_);
    field(io, self.tel_);
}

template void AdaptiveThreshold::serialize(const AdaptiveThreshold &,
                                           SnapshotWriter &);
template void AdaptiveThreshold::serialize(AdaptiveThreshold &,
                                           SnapshotReader &);

}  // namespace moka
