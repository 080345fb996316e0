#include "core/branch_pred.h"

#include <cstdlib>

#include "common/bitops.h"
#include "common/check.h"
#include "common/hashing.h"
#include "snapshot/snapshot.h"

namespace moka {

BranchPredictor::BranchPredictor(const BranchPredConfig &config)
    : cfg_(config),
      weights_(std::size_t(config.tables) * config.entries, 0),
      wmin_(static_cast<std::int16_t>(-(1 << (config.weight_bits - 1)))),
      wmax_(static_cast<std::int16_t>((1 << (config.weight_bits - 1)) - 1)),
      entries_mask_(config.entries - 1)
{
    SIM_REQUIRE(is_pow2(config.entries),
                "branch-predictor entries must be a power of two");
}

int
BranchPredictor::sum_for(Addr pc, IndexArray &indexes) const
{
    const std::int16_t *arena = weights_.data();
    int sum = 0;
    for (unsigned t = 0; t < cfg_.tables; ++t) {
        // Table t sees the PC hashed with an 8-bit history segment.
        const std::uint64_t seg = (history_ >> (8 * t)) & 0xFF;
        const std::uint64_t h =
            mix64(pc ^ (seg << 17) ^ (static_cast<std::uint64_t>(t) << 40));
        const std::uint32_t idx = static_cast<std::uint32_t>(h & entries_mask_);
        indexes[t] = idx;
        sum += arena[std::size_t(t) * cfg_.entries + idx];
    }
    return sum;
}

bool
BranchPredictor::predict(Addr pc) const
{
    ++lookups_;
    memo_sum_ = sum_for(pc, memo_indexes_);
    memo_pc_ = pc;
    memo_valid_ = true;
    return memo_sum_ >= 0;
}

void
BranchPredictor::update(Addr pc, bool taken)
{
    IndexArray indexes;
    int sum;
    if (memo_valid_ && memo_pc_ == pc) {
        indexes = memo_indexes_;
        sum = memo_sum_;
    } else {
        sum = sum_for(pc, indexes);
    }
    // Training and the history shift below invalidate the memo.
    memo_valid_ = false;
    const bool predicted = sum >= 0;
    if (predicted != taken) {
        ++mispredicts_;
    }
    // Perceptron rule: train on mispredict or weak margin.
    if (predicted != taken || std::abs(sum) < cfg_.train_threshold) {
        std::int16_t *arena = weights_.data();
        for (unsigned t = 0; t < cfg_.tables; ++t) {
            std::int16_t &w = arena[std::size_t(t) * cfg_.entries +
                                    indexes[t]];
            if (taken) {
                if (w < wmax_) {
                    ++w;
                }
            } else {
                if (w > wmin_) {
                    --w;
                }
            }
        }
    }
    history_ = (history_ << 1) | (taken ? 1 : 0);
}

template <class Self, class IO>
void
BranchPredictor::serialize(Self &self, IO &io)
{
    for (auto &v : self.weights_) {
        field_as<std::uint16_t>(io, v);
        require(io, v >= self.wmin_ && v <= self.wmax_,
                "signed counter outside its rails");
    }
    field(io, self.history_);
    field(io, self.lookups_);
    field(io, self.mispredicts_);
    if constexpr (kRestoring<IO>) {
        self.memo_valid_ = false;
    }
}

template void BranchPredictor::serialize(const BranchPredictor &,
                                         SnapshotWriter &);
template void BranchPredictor::serialize(BranchPredictor &, SnapshotReader &);

}  // namespace moka
