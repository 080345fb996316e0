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
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"

namespace moka {

struct AuditAccess;
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
 * Rank LRU: one 8-bit recency rank per way, 0 for the most recently
 * touched and ways - 1 for the least, so each set's row is a
 * permutation of [0, ways). A touch moves the way to rank 0 and ages
 * every way that ranked ahead of it; the victim is the way ranked
 * ways - 1. Once every way of a set has been filled, rank order is
 * touch order, so the victim is the way a timestamp LRU would pick.
 * Defined in the header and `final` so that the cache can keep a
 * typed pointer for the paper's default policy and the per-access
 * on_hit/on_fill/victim calls inline instead of going through the
 * vtable — these are among the hottest calls in the simulator (rule
 * L12).
 */
class LruPolicy final : public ReplacementPolicy
{
  public:
    //! widest set: ranks stay below 128, so touch() ages them 8 at a time
    static constexpr std::uint32_t kMaxWays = 128;

    LruPolicy(std::uint32_t sets, std::uint32_t ways);

    void
    on_hit(std::uint32_t set, std::uint32_t way) override
    {
        touch(set, way);
    }

    void
    on_fill(std::uint32_t set, std::uint32_t way) override
    {
        touch(set, way);
    }

    std::uint32_t
    victim(std::uint32_t set) override
    {
        const std::uint8_t *row = &ranks_[std::size_t(set) * ways_];
        const std::uint8_t oldest = static_cast<std::uint8_t>(ways_ - 1);
        std::uint32_t v = 0;
        while (v + 1 < ways_ && row[v] != oldest) {
            ++v;
        }
        return v;
    }

    const char *name() const override { return "lru"; }

    bool audit_state(std::string &why) const override;
    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    friend struct AuditAccess;

    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    void
    touch(std::uint32_t set, std::uint32_t way)
    {
        std::uint8_t *row = &ranks_[std::size_t(set) * ways_];
        const std::uint8_t rank = row[way];
        if (rank == 0) {
            return;  // already the most recent
        }
        // Age every way ranked ahead of `rank`, eight per 64-bit word:
        // ranks are below 128, so a byte of (x | 0x80) - rank keeps
        // its top bit exactly when x >= rank and borrows from no other
        // byte, and adding the inverted top bit ages the rest.
        constexpr std::uint64_t kOnes = 0x0101010101010101ull;
        constexpr std::uint64_t kTop = kOnes << 7;
        const std::uint64_t rank_bytes = kOnes * rank;
        std::uint32_t w = 0;
        for (; w + 8 <= ways_; w += 8) {
            std::uint64_t x = 0;
            std::memcpy(&x, row + w, sizeof(x));
            x += (~((x | kTop) - rank_bytes) & kTop) >> 7;
            std::memcpy(row + w, &x, sizeof(x));
        }
        for (; w < ways_; ++w) {
            row[w] = static_cast<std::uint8_t>(row[w] + (row[w] < rank));
        }
        row[way] = 0;
    }

    /** First set whose ranks are not a permutation, or -1 for none. */
    std::int64_t first_unordered_set() const;

    std::uint32_t ways_;  // LINT_SNAPSHOT_OK: geometry, not state
    std::vector<std::uint8_t> ranks_;  //!< sets * ways, row per set
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
