/**
 * @file
 * Replacement policies for the set-associative structures. The paper
 * evaluates LRU everywhere (Table IV); SRRIP and Random are provided
 * for ablations (bench/ablation_replacement) and for downstream users
 * whose baselines differ.
 */
#ifndef MOKASIM_CACHE_REPLACEMENT_H
#define MOKASIM_CACHE_REPLACEMENT_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"

namespace moka {

class SnapshotReader;
class SnapshotWriter;

/** Replacement policy selector. */
enum class ReplacementKind : std::uint8_t {
    kLru,    //!< least-recently-used (paper's Table IV)
    kSrrip,  //!< static re-reference interval prediction (2-bit)
    kRandom, //!< pseudo-random victim
};

/**
 * Per-set replacement state machine. One instance serves a whole
 * cache; way state is stored per (set, way) slot.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** A block at (set, way) was touched by a hit. */
    virtual void on_hit(std::uint32_t set, std::uint32_t way) = 0;

    /** A block was filled into (set, way). */
    virtual void on_fill(std::uint32_t set, std::uint32_t way) = 0;

    /** Choose the victim way within @p set (all ways valid). */
    virtual std::uint32_t victim(std::uint32_t set) = 0;

    /** Identifier for reports. */
    virtual const char *name() const = 0;

    /**
     * Check internal-state invariants (replacement-stack sanity).
     *
     * @param why filled with a description of the first violation
     * @return true when the policy state is consistent
     */
    virtual bool audit_state(std::string &why) const
    {
        (void)why;
        return true;
    }

    /** Serialize replacement metadata (stamps / RRPVs / RNG). */
    virtual void save_state(SnapshotWriter &w) const = 0;

    /** Inverse of save_state on a same-geometry instance. */
    virtual void restore_state(SnapshotReader &r) = 0;
};

/**
 * Timestamp LRU. Defined in the header and `final` so that the cache
 * can keep a typed pointer for the paper's default policy and the
 * per-access on_hit/on_fill/victim calls inline instead of going
 * through the vtable — these are among the hottest calls in the
 * simulator (rule L12).
 */
class LruPolicy final : public ReplacementPolicy
{
  public:
    LruPolicy(std::uint32_t sets, std::uint32_t ways)
        : ways_(ways), stamps_(std::size_t(sets) * ways, 0)
    {
    }

    void
    on_hit(std::uint32_t set, std::uint32_t way) override
    {
        stamps_[std::size_t(set) * ways_ + way] = ++clock_;
    }

    void
    on_fill(std::uint32_t set, std::uint32_t way) override
    {
        stamps_[std::size_t(set) * ways_ + way] = ++clock_;
    }

    std::uint32_t
    victim(std::uint32_t set) override
    {
        const std::uint64_t *row = &stamps_[std::size_t(set) * ways_];
        std::uint32_t v = 0;
        for (std::uint32_t w = 1; w < ways_; ++w) {
            if (row[w] < row[v]) {
                v = w;
            }
        }
        return v;
    }

    const char *name() const override { return "lru"; }

    bool audit_state(std::string &why) const override;
    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    std::uint32_t ways_;  // LINT_SNAPSHOT_OK: geometry, not state
    std::vector<std::uint64_t> stamps_;
    std::uint64_t clock_ = 0;
};

/**
 * Build a policy instance.
 *
 * @param kind which policy
 * @param sets cache sets
 * @param ways cache ways
 * @param seed randomization seed (kRandom only)
 */
std::unique_ptr<ReplacementPolicy> make_replacement(ReplacementKind kind,
                                                    std::uint32_t sets,
                                                    std::uint32_t ways,
                                                    std::uint64_t seed = 1);

}  // namespace moka

#endif  // MOKASIM_CACHE_REPLACEMENT_H
