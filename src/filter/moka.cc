#include "filter/moka.h"

#include <algorithm>
#include <cstdlib>

#include "common/bitops.h"
#include "common/check.h"
#include "common/hashing.h"
#include "snapshot/snapshot.h"
#include "telemetry/gate.h"

namespace moka {

MokaFilter::MokaFilter(const MokaConfig &config)
    : cfg_(config), vub_(config.vub_entries), pub_(config.pub_entries),
      thresholds_(config.threshold)
{
    SIM_REQUIRE(cfg_.program_features.size() +
                        cfg_.specialized_features.size() <=
                    VirtDecisionRecord::kMaxFeatures,
                "MOKA configured with more features than a "
                "DecisionRecord can hold");
    SIM_REQUIRE(cfg_.system_features.size() <= 8,
                "MOKA supports at most 8 system features (8-bit mask)");
    SIM_REQUIRE(is_pow2(cfg_.wt_entries),
                "weight-table entries must be a power of two");
    SIM_REQUIRE(cfg_.weight_bits >= 2 && cfg_.weight_bits <= 16,
                "weight width must be 2..16 bits");
    index_bits_ = log2_exact(cfg_.wt_entries);
    wmin_ = static_cast<std::int16_t>(-(1 << (cfg_.weight_bits - 1)));
    wmax_ = static_cast<std::int16_t>((1 << (cfg_.weight_bits - 1)) - 1);
    for (ProgramFeatureId id : cfg_.program_features) {
        slots_.push_back({false, static_cast<std::uint16_t>(id)});
    }
    for (SpecializedFeatureId id : cfg_.specialized_features) {
        slots_.push_back({true, static_cast<std::uint16_t>(id)});
    }
    weights_.assign(slots_.size() << index_bits_, 0);
    for (const SystemFeatureConfig &sf : cfg_.system_features) {
        system_.emplace_back(sf);
    }
}

VirtDecisionRecord
MokaFilter::make_record(VirtAddr block, const FeatureInput &in,
                        const SystemSnapshot &snap) const
{
    VirtDecisionRecord rec;
    rec.block = block;
    rec.num_features = static_cast<std::uint8_t>(slots_.size());
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        const FeatureSlot s = slots_[i];
        const std::uint64_t value =
            s.specialized
                ? eval_specialized(static_cast<SpecializedFeatureId>(s.id),
                                   in)
                : eval_feature(static_cast<ProgramFeatureId>(s.id), in);
        rec.indexes[i] = table_index(value, index_bits_);
    }
    for (std::size_t i = 0; i < system_.size(); ++i) {
        if (system_[i].active(snap)) {
            rec.system_mask |= static_cast<std::uint8_t>(1u << i);
        }
    }
    return rec;
}

bool
MokaFilter::permit(Addr trigger_pc, VirtAddr trigger_vaddr,
                   std::int64_t delta, VirtAddr target_vaddr,
                   const SystemSnapshot &snap, std::uint64_t meta)
{
    // Stage 1-2: gather program weights and active system weights.
    const FeatureInput in =
        extractor_.make_input(trigger_pc, trigger_vaddr, delta, meta);
    const VirtDecisionRecord rec =
        make_record(block_addr(target_vaddr), in, snap);

    if (thresholds_.pgc_disabled()) {
        // Extreme LLC pressure: discard, but let vUB keep learning so
        // page-cross prefetching can re-arm later.
        vub_.insert(rec);
        pending_valid_ = false;
        return false;
    }

    // Stage 3: cumulative weight — a gather-and-sum over the flat
    // arena; slot i's table starts at i << index_bits_.
    int w_final = 0;
    const std::int16_t *arena = weights_.data();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        w_final += arena[(i << index_bits_) + rec.indexes[i]];
    }
    for (std::size_t i = 0; i < system_.size(); ++i) {
        if (rec.system_mask & (1u << i)) {
            w_final += system_[i].weight();
        }
    }

    // Stage 4: compare against the activation threshold.
    const bool permitted = w_final > thresholds_.threshold();

    if (telemetry_enabled()) {
        ++tel_.decisions;
        tel_.permits += permitted ? 1 : 0;
        tel_.sum_total += w_final;
        ++tel_.sum_hist[FilterTelemetry::sum_bucket(w_final)];
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            tel_.feature_abs[i] += static_cast<std::uint64_t>(
                std::abs(weight_at(i, rec.indexes[i])));
        }
    }

    if (permitted) {
        pending_ = rec;
        pending_valid_ = true;
        return true;
    }
    vub_.insert(rec);
    pending_valid_ = false;
    return false;
}

void
MokaFilter::on_demand_access(Addr pc, VirtAddr vaddr)
{
    extractor_.on_demand_access(pc, vaddr);
}

template <class AddrT>
void
MokaFilter::train(const DecisionRecordT<AddrT> &rec, bool positive)
{
    for (std::uint8_t i = 0; i < rec.num_features; ++i) {
        std::int16_t &w = weights_[(static_cast<std::size_t>(i)
                                    << index_bits_) +
                                   rec.indexes[i]];
        if (positive) {
            if (w < wmax_) {
                ++w;
            }
        } else if (w > wmin_) {
            --w;
        }
    }
    for (std::size_t i = 0; i < system_.size(); ++i) {
        if (rec.system_mask & (1u << i)) {
            if (positive) {
                system_[i].increment();
            } else {
                system_[i].decrement();
            }
        }
    }
}

void
MokaFilter::on_l1d_demand_miss(VirtAddr vaddr)
{
    // vUB hit: we discarded a page-cross prefetch that would have
    // covered this miss — a false negative. Positive training.
    VirtDecisionRecord rec;
    if (vub_.take(block_addr(vaddr), rec)) {
        train(rec, true);
        if (telemetry_enabled()) {
            ++tel_.vub_rewards;
        }
    }
}

void
MokaFilter::on_pgc_issued(VirtAddr target_vaddr, PhysAddr target_paddr)
{
    if (!pending_valid_) {
        return;
    }
    SIM_AUDIT(pending_.block == block_addr(target_vaddr),
              "issued page-cross prefetch does not match the pending "
              "decision record");
    (void)target_vaddr;
    // The VA->PA hand-off: the pending record crosses the translation
    // seam here and nowhere else.
    pub_.insert(rekey_to_physical(pending_, block_addr(target_paddr)));
    pending_valid_ = false;
}

void
MokaFilter::on_pgc_first_use(PhysAddr block_paddr)
{
    // The issued page-cross prefetch proved useful: reward.
    PhysDecisionRecord rec;
    if (pub_.take(block_addr(block_paddr), rec)) {
        train(rec, true);
        if (telemetry_enabled()) {
            ++tel_.pub_rewards;
        }
    }
}

void
MokaFilter::on_pgc_eviction(PhysAddr block_paddr, bool used)
{
    PhysDecisionRecord rec;
    if (!pub_.take(block_addr(block_paddr), rec)) {
        return;
    }
    if (!used) {
        // Evicted without serving a demand access: the filter should
        // have classified this page-cross prefetch as useless.
        train(rec, false);
        if (telemetry_enabled()) {
            ++tel_.pub_punishes;
        }
    }
}

void
MokaFilter::on_interval(const SystemSnapshot &snap)
{
    thresholds_.on_interval(snap);
}

void
MokaFilter::on_epoch(const EpochInfo &info)
{
    thresholds_.on_epoch(info);
}

FilterTelemetry
MokaFilter::telemetry() const
{
    FilterTelemetry t = tel_;
    t.valid = true;
    t.t_a = thresholds_.threshold();
    t.level = thresholds_.level();
    t.pgc_disabled = thresholds_.pgc_disabled();
    t.num_features = slots_.size();
    t.threshold = thresholds_.telemetry_counters();
    return t;
}

std::uint64_t
MokaFilter::storage_bits() const
{
    std::uint64_t bits = static_cast<std::uint64_t>(weights_.size()) *
                         cfg_.weight_bits;
    for (const SystemFeature &sf : system_) {
        bits += sf.storage_bits();
    }
    bits += vub_.storage_bits();
    bits += pub_.storage_bits();
    return bits;
}

template <class Self, class IO>
void
MokaFilter::serialize(Self &self, IO &io)
{
    field(io, self.extractor_);
    io.begin_section("filter.moka");
    // Same byte stream as the per-table layout: one u16 per weight,
    // table-major — exactly the arena's storage order.
    for (auto &v : self.weights_) {
        field_as<std::uint16_t>(io, v);
        require(io, v >= self.wmin_ && v <= self.wmax_,
                "signed counter outside its rails");
    }
    for (auto &f : self.system_) {
        field(io, f);
    }
    field(io, self.vub_);
    field(io, self.pub_);
    field(io, self.pending_);
    // train() indexes the weight arena with each record's indexes.
    const auto in_tables = [&self](const auto &rec) {
        return rec.num_features <= self.slots_.size() &&
               std::all_of(rec.indexes.begin(),
                           rec.indexes.begin() + rec.num_features,
                           [&self](std::uint32_t i) {
                               return i < self.cfg_.wt_entries;
                           });
    };
    require(io,
            in_tables(self.pending_) && self.vub_.all_records(in_tables) &&
                self.pub_.all_records(in_tables),
            "decision record outside the weight tables");
    field(io, self.pending_valid_);
    auto &tel = self.tel_;
    field(io, tel.valid);
    field_as<std::int64_t>(io, tel.t_a);
    field_as<std::int64_t>(io, tel.level);
    field(io, tel.pgc_disabled);
    field(io, tel.decisions);
    field(io, tel.permits);
    field(io, tel.vub_rewards);
    field(io, tel.pub_rewards);
    field(io, tel.pub_punishes);
    field(io, tel.sum_total);
    field(io, tel.sum_hist);
    field(io, tel.num_features);
    field(io, tel.feature_abs);
    field(io, tel.threshold);
    field(io, self.thresholds_);
}

template void MokaFilter::serialize(const MokaFilter &, SnapshotWriter &);
template void MokaFilter::serialize(MokaFilter &, SnapshotReader &);

}  // namespace moka
