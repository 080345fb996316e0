#include "filter/system_features.h"

#include "snapshot/snapshot.h"

namespace moka {

SystemFeatureConfig
default_system_feature(SystemFeatureId id)
{
    SystemFeatureConfig cfg;
    cfg.id = id;
    switch (id) {
      case SystemFeatureId::kL1dMpki:
        cfg.threshold = 20.0;
        cfg.active_when_above = false;
        break;
      case SystemFeatureId::kL1dMissRate:
        cfg.threshold = 0.30;
        cfg.active_when_above = true;
        break;
      case SystemFeatureId::kLlcMpki:
        cfg.threshold = 5.0;
        cfg.active_when_above = false;
        break;
      case SystemFeatureId::kLlcMissRate:
        cfg.threshold = 0.50;
        cfg.active_when_above = true;
        break;
      case SystemFeatureId::kStlbMpki:
        // DRIPPER: participates in phases with LOW sTLB pressure,
        // where a page-cross probe will likely hit the TLB hierarchy.
        cfg.threshold = 1.0;
        cfg.active_when_above = false;
        break;
      case SystemFeatureId::kStlbMissRate:
        // Complementary: participates in phases with HIGH sTLB
        // pressure, where prefetch-triggered walks may warm the TLB.
        cfg.threshold = 0.20;
        cfg.active_when_above = true;
        break;
    }
    return cfg;
}

const char *
system_feature_name(SystemFeatureId id)
{
    switch (id) {
      case SystemFeatureId::kL1dMpki:      return "L1D MPKI";
      case SystemFeatureId::kL1dMissRate:  return "L1D Miss Rate";
      case SystemFeatureId::kLlcMpki:      return "LLC MPKI";
      case SystemFeatureId::kLlcMissRate:  return "LLC Miss Rate";
      case SystemFeatureId::kStlbMpki:     return "sTLB MPKI";
      case SystemFeatureId::kStlbMissRate: return "sTLB Miss Rate";
    }
    return "?";
}

const std::vector<SystemFeatureId> &
all_system_features()
{
    static const std::vector<SystemFeatureId> kAll = {
        SystemFeatureId::kL1dMpki,   SystemFeatureId::kL1dMissRate,
        SystemFeatureId::kLlcMpki,   SystemFeatureId::kLlcMissRate,
        SystemFeatureId::kStlbMpki,  SystemFeatureId::kStlbMissRate,
    };
    return kAll;
}

bool
SystemFeature::active(const SystemSnapshot &snap) const
{
    double value = 0.0;
    switch (cfg_.id) {
      case SystemFeatureId::kL1dMpki:      value = snap.l1d_mpki; break;
      case SystemFeatureId::kL1dMissRate:  value = snap.l1d_miss_rate; break;
      case SystemFeatureId::kLlcMpki:      value = snap.llc_mpki; break;
      case SystemFeatureId::kLlcMissRate:  value = snap.llc_miss_rate; break;
      case SystemFeatureId::kStlbMpki:     value = snap.stlb_mpki; break;
      case SystemFeatureId::kStlbMissRate: value = snap.stlb_miss_rate; break;
    }
    return cfg_.active_when_above ? (value > cfg_.threshold)
                                  : (value < cfg_.threshold);
}

template <class Self, class IO>
void
SystemFeature::serialize(Self &self, IO &io)
{
    field(io, self.weight_);
}

template void SystemFeature::serialize(const SystemFeature &, SnapshotWriter &);
template void SystemFeature::serialize(SystemFeature &, SnapshotReader &);

}  // namespace moka
