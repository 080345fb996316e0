#include "cache/replacement.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "common/check.h"
#include "snapshot/snapshot.h"

namespace moka {

LruPolicy::LruPolicy(std::uint32_t sets, std::uint32_t ways)
    : ways_(ways), ranks_(std::size_t(sets) * ways)
{
    SIM_REQUIRE(ways > 0 && ways <= kMaxWays,
                "lru ranks order 1 to 128 ways");
    // Row by row: a per-element `i % ways` costs more than the fill.
    for (auto row = ranks_.begin(); row != ranks_.end(); row += ways) {
        std::iota(row, row + ways, std::uint8_t{0});
    }
}

std::int64_t
LruPolicy::first_unordered_set() const
{
    for (std::size_t base = 0; base < ranks_.size(); base += ways_) {
        std::array<std::uint64_t, kMaxWays / 64> seen{};
        for (std::size_t i = base; i < base + ways_; ++i) {
            const std::uint8_t rank = ranks_[i];
            const std::uint64_t bit = std::uint64_t{1} << (rank & 63);
            if (rank >= ways_ || (seen[rank >> 6] & bit) != 0) {
                return static_cast<std::int64_t>(base / ways_);
            }
            seen[rank >> 6] |= bit;
        }
    }
    return -1;
}

bool
LruPolicy::audit_state(std::string &why) const
{
    const std::int64_t set = first_unordered_set();
    if (set >= 0) {
        why = "lru ranks of set " + std::to_string(set) +
              " are not a permutation of its ways";
        return false;
    }
    return true;
}

template <class Self, class IO>
void
LruPolicy::serialize(Self &self, IO &io)
{
    field(io, self.ranks_);
    require(io, self.first_unordered_set() < 0,
            "lru ranks of a set are not a permutation of its ways");
}

template void LruPolicy::serialize(const LruPolicy &, SnapshotWriter &);
template void LruPolicy::serialize(LruPolicy &, SnapshotReader &);

namespace {

/** 2-bit SRRIP (Jaleel et al., ISCA 2010). */
class SrripPolicy : public ReplacementPolicy
{
  public:
    static constexpr std::uint8_t kMaxRrpv = 3;

    SrripPolicy(std::uint32_t sets, std::uint32_t ways)
        : ways_(ways), rrpv_(std::size_t(sets) * ways, kMaxRrpv)
    {
    }

    void
    on_hit(std::uint32_t set, std::uint32_t way) override
    {
        rrpv_[std::size_t(set) * ways_ + way] = 0;
    }

    void
    on_fill(std::uint32_t set, std::uint32_t way) override
    {
        // Long re-reference prediction on insertion.
        rrpv_[std::size_t(set) * ways_ + way] = kMaxRrpv - 1;
    }

    std::uint32_t
    victim(std::uint32_t set) override
    {
        std::uint8_t *row = &rrpv_[std::size_t(set) * ways_];
        for (;;) {
            for (std::uint32_t w = 0; w < ways_; ++w) {
                if (row[w] == kMaxRrpv) {
                    return w;
                }
            }
            for (std::uint32_t w = 0; w < ways_; ++w) {
                ++row[w];
            }
        }
    }

    const char *name() const override { return "srrip"; }

    bool
    audit_state(std::string &why) const override
    {
        for (std::size_t i = 0; i < rrpv_.size(); ++i) {
            if (rrpv_[i] > kMaxRrpv) {
                why = "srrip rrpv above the 2-bit rail at slot " +
                      std::to_string(i);
                return false;
            }
        }
        return true;
    }

    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    template <class Self, class IO>
    static void
    serialize(Self &self, IO &io)
    {
        field(io, self.rrpv_);
        require(io,
                std::all_of(self.rrpv_.begin(), self.rrpv_.end(),
                            [](std::uint8_t v) { return v <= kMaxRrpv; }),
                "srrip rrpv above the 2-bit rail");
    }

    std::uint32_t ways_;  // LINT_SNAPSHOT_OK: geometry, not state
    std::vector<std::uint8_t> rrpv_;
};

/** Pseudo-random victim. */
class RandomPolicy : public ReplacementPolicy
{
  public:
    RandomPolicy(std::uint32_t ways, std::uint64_t seed)
        : ways_(ways), rng_(seed)
    {
    }

    void on_hit(std::uint32_t, std::uint32_t) override {}
    void on_fill(std::uint32_t, std::uint32_t) override {}

    std::uint32_t
    victim(std::uint32_t) override
    {
        return static_cast<std::uint32_t>(rng_.below(ways_));
    }

    const char *name() const override { return "random"; }

    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    template <class Self, class IO>
    static void
    serialize(Self &self, IO &io)
    {
        field(io, self.rng_);
    }

    std::uint32_t ways_;  // LINT_SNAPSHOT_OK: geometry, not state
    Rng rng_;
};

}  // namespace

std::unique_ptr<ReplacementPolicy>
make_replacement(ReplacementKind kind, std::uint32_t sets,
                 std::uint32_t ways, std::uint64_t seed)
{
    switch (kind) {
      case ReplacementKind::kSrrip:
        return std::make_unique<SrripPolicy>(sets, ways);
      case ReplacementKind::kRandom:
        return std::make_unique<RandomPolicy>(ways, seed);
      case ReplacementKind::kLru:
      default:
        return std::make_unique<LruPolicy>(sets, ways);
    }
}

}  // namespace moka
