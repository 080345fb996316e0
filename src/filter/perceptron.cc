#include "filter/perceptron.h"

#include "snapshot/snapshot.h"

#include "common/bitops.h"
#include "common/check.h"
#include "common/hashing.h"

namespace moka {

WeightTable::WeightTable(unsigned entries, unsigned weight_bits)
    : weights_(entries, SignedSatCounter(weight_bits)),
      weight_bits_(weight_bits)
{
    SIM_REQUIRE(is_pow2(entries),
                "weight-table entries must be a power of two");
    SIM_REQUIRE(weight_bits >= 2 && weight_bits <= 16,
                "weight width must be 2..16 bits");
    index_bits_ = log2_exact(entries);
}

std::uint32_t
WeightTable::index_of(std::uint64_t feature_value) const
{
    return table_index(feature_value, index_bits_);
}

int
WeightTable::weight_at(std::uint32_t index) const
{
    return weights_[index].value();
}

void
WeightTable::increment(std::uint32_t index)
{
    weights_[index].increment();
}

void
WeightTable::decrement(std::uint32_t index)
{
    weights_[index].decrement();
}

template <class Self, class IO>
void
WeightTable::serialize(Self &self, IO &io)
{
    for (auto &c : self.weights_) {
        field(io, c);
    }
}

template void WeightTable::serialize(const WeightTable &, SnapshotWriter &);
template void WeightTable::serialize(WeightTable &, SnapshotReader &);

}  // namespace moka
