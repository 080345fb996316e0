#include "filter/features.h"

#include "snapshot/snapshot.h"

#include <cstdlib>

#include "common/hashing.h"

namespace moka {

std::uint64_t
eval_feature(ProgramFeatureId id, const FeatureInput &in)
{
    // Deltas participate as unsigned two's-complement values; `d` and
    // `ad` (absolute) plus the prefetch target `tva` are precomputed
    // for the expression table.
    const std::uint64_t d = static_cast<std::uint64_t>(in.delta);
    const std::uint64_t ad =
        static_cast<std::uint64_t>(std::llabs(in.delta));
    const VirtAddr tva = in.vaddr + in.delta * 64;
    (void)ad;
    switch (id) {
#define MOKA_EVAL(id_, name_, expr_)                                         \
      case ProgramFeatureId::id_:                                            \
        return static_cast<std::uint64_t>(expr_);
        MOKA_PROGRAM_FEATURES(MOKA_EVAL)
#undef MOKA_EVAL
    }
    return 0;
}

const char *
feature_name(ProgramFeatureId id)
{
    switch (id) {
#define MOKA_NAME(id_, name_, expr_)                                         \
      case ProgramFeatureId::id_:                                            \
        return name_;
        MOKA_PROGRAM_FEATURES(MOKA_NAME)
#undef MOKA_NAME
    }
    return "?";
}

const std::vector<ProgramFeatureId> &
all_program_features()
{
    static const std::vector<ProgramFeatureId> kAll = {
#define MOKA_LIST(id_, name_, expr_) ProgramFeatureId::id_,
        MOKA_PROGRAM_FEATURES(MOKA_LIST)
#undef MOKA_LIST
    };
    return kAll;
}

std::size_t
program_feature_count()
{
    return all_program_features().size();
}

const std::vector<ProgramFeatureId> &
table1_program_features()
{
    static const std::vector<ProgramFeatureId> kTable1 = {
        ProgramFeatureId::kVa,          ProgramFeatureId::kVaP12,
        ProgramFeatureId::kVaP21,       ProgramFeatureId::kLineOffset,
        ProgramFeatureId::kPc,          ProgramFeatureId::kPcPlusOffset,
        ProgramFeatureId::kVaHist3,     ProgramFeatureId::kVpnHist3,
        ProgramFeatureId::kPcHist3,     ProgramFeatureId::kPcXorVa,
        ProgramFeatureId::kPcXorVpn,    ProgramFeatureId::kVaXorDelta,
        ProgramFeatureId::kPcXorDelta,  ProgramFeatureId::kVpnXorDelta,
        ProgramFeatureId::kPcXorFpa,    ProgramFeatureId::kVaXorFpa,
        ProgramFeatureId::kVpnXorFpa,   ProgramFeatureId::kOffsetPlusFpa,
        ProgramFeatureId::kDeltaPlusFpa,
    };
    return kTable1;
}

void
FeatureExtractor::on_demand_access(Addr pc, VirtAddr vaddr)
{
    const Addr page = page_index(vaddr);
    FpaEntry &e = fpa_[mix64(page) % kFpaEntries];
    if (e.page != page) {
        e.page = page;
        e.first_line = line_in_page(vaddr);
    }
    va_hist_[1] = va_hist_[0];
    va_hist_[0] = vaddr;
    pc_hist_[1] = pc_hist_[0];
    pc_hist_[0] = pc;
}

std::uint64_t
eval_specialized(SpecializedFeatureId id, const FeatureInput &in)
{
    switch (id) {
      case SpecializedFeatureId::kMeta:
        return in.meta;
      case SpecializedFeatureId::kMetaXorDelta:
        return in.meta ^ static_cast<std::uint64_t>(in.delta);
      case SpecializedFeatureId::kMetaXorPc:
        return in.meta ^ in.pc;
    }
    return 0;
}

const char *
specialized_feature_name(SpecializedFeatureId id)
{
    switch (id) {
      case SpecializedFeatureId::kMeta:         return "Meta";
      case SpecializedFeatureId::kMetaXorDelta: return "Meta^Delta";
      case SpecializedFeatureId::kMetaXorPc:    return "Meta^PC";
    }
    return "?";
}

FeatureInput
FeatureExtractor::make_input(Addr trigger_pc, VirtAddr trigger_vaddr,
                             std::int64_t delta, std::uint64_t meta) const
{
    FeatureInput in;
    in.pc = trigger_pc;
    in.vaddr = trigger_vaddr;
    in.va1 = va_hist_[0];
    in.va2 = va_hist_[1];
    in.pc1 = pc_hist_[0];
    in.pc2 = pc_hist_[1];
    in.delta = delta;
    in.meta = meta;
    const Addr page = page_index(trigger_vaddr);
    const FpaEntry &e = fpa_[mix64(page) % kFpaEntries];
    in.first_page_access = (e.page == page) ? e.first_line : 0;
    return in;
}

template <class Self, class IO>
void
FeatureExtractor::serialize(Self &self, IO &io)
{
    io.begin_section("filter.extractor");
    field(io, self.va_hist_);
    field(io, self.pc_hist_);
    for (auto &e : self.fpa_) {
        field(io, e.page);
        field(io, e.first_line);
    }
}

template void FeatureExtractor::serialize(const FeatureExtractor &,
                                          SnapshotWriter &);
template void FeatureExtractor::serialize(FeatureExtractor &, SnapshotReader &);

}  // namespace moka
