/**
 * @file
 * Hashed-perceptron branch predictor (Tarjan & Skadron), as listed in
 * the paper's Table IV core configuration. Several weight tables are
 * indexed by PC hashed with different global-history segments; the
 * signed sum decides the direction.
 */
#ifndef MOKASIM_CORE_BRANCH_PRED_H
#define MOKASIM_CORE_BRANCH_PRED_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace moka {

class SnapshotReader;
class SnapshotWriter;

/** Predictor geometry. */
struct BranchPredConfig
{
    unsigned tables = 8;        //!< feature tables
    unsigned entries = 256;     //!< entries per table
    unsigned weight_bits = 6;
    int train_threshold = 16;   //!< retrain below this |sum| margin

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("tables", s.tables...);
        v("entries", s.entries...);
        v("weight_bits", s.weight_bits...);
        v("train_threshold", s.train_threshold...);
    }
};

/** See file comment. */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const BranchPredConfig &config);

    /** Predict the direction of the branch at @p pc. */
    bool predict(Addr pc) const;

    /** Commit the outcome: trains and shifts the global history. */
    void update(Addr pc, bool taken);

    /** Branches predicted. */
    std::uint64_t lookups() const { return lookups_; }
    /** Mispredicted branches. */
    std::uint64_t mispredicts() const { return mispredicts_; }

    /** Serialize weight tables, history and counters. */
    void save_state(SnapshotWriter &w) const { serialize(*this, w); }
    /** Inverse of save_state on a same-config instance. */
    void restore_state(SnapshotReader &r) { serialize(*this, r); }

  private:
    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    static constexpr unsigned kMaxTables = 16;
    using IndexArray = std::array<std::uint32_t, kMaxTables>;

    int sum_for(Addr pc, IndexArray &indexes) const;

    // LINT_SNAPSHOT_OK: config, rebuilt from MachineConfig
    BranchPredConfig cfg_;
    // One flat table-major arena instead of a vector-of-vectors of
    // SignedSatCounter: the per-branch sum is a gather over one
    // contiguous array, and the rails (identical for every weight)
    // live once in wmin_/wmax_. The snapshot byte format (u16 per
    // weight, table-major) is unchanged.
    std::vector<std::int16_t> weights_;
    std::int16_t wmin_ = 0;            // LINT_SNAPSHOT_OK: config rail
    std::int16_t wmax_ = 0;            // LINT_SNAPSHOT_OK: config rail
    //! entries - 1 (entries is a power of two)
    std::uint32_t entries_mask_ = 0;   // LINT_SNAPSHOT_OK: config
    std::uint64_t history_ = 0;
    mutable std::uint64_t lookups_ = 0;
    std::uint64_t mispredicts_ = 0;
    // predict()/update() run back-to-back for the same branch and
    // nothing mutates the weights or history in between, so update()
    // reuses the sum and indexes predict() just computed instead of
    // re-hashing all tables. Pure memoization of a deterministic
    // function — not architectural state.
    mutable IndexArray memo_indexes_{};  // LINT_SNAPSHOT_OK: memo
    mutable Addr memo_pc_ = 0;           // LINT_SNAPSHOT_OK: memo
    mutable int memo_sum_ = 0;           // LINT_SNAPSHOT_OK: memo
    mutable bool memo_valid_ = false;    // LINT_SNAPSHOT_OK: memo
};

}  // namespace moka

#endif  // MOKASIM_CORE_BRANCH_PRED_H
