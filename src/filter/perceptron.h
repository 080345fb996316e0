/**
 * @file
 * Hashed-perceptron weight table (Tarjan & Skadron style): one table
 * per selected program feature, 5-bit signed saturating weights,
 * indexed by a folded hash of the raw feature value.
 */
#ifndef MOKASIM_FILTER_PERCEPTRON_H
#define MOKASIM_FILTER_PERCEPTRON_H

#include <cstdint>
#include <vector>

#include "common/sat_counter.h"

namespace moka {

struct AuditAccess;
class SnapshotReader;
class SnapshotWriter;

/** One feature's weight table. */
class WeightTable
{
  public:
    /**
     * @param entries     table entries (power of two recommended)
     * @param weight_bits signed weight width (paper: 5)
     */
    WeightTable(unsigned entries, unsigned weight_bits);

    /** Map a raw feature value to a table index. */
    std::uint32_t index_of(std::uint64_t feature_value) const;

    /** Weight stored at @p index. */
    int weight_at(std::uint32_t index) const;

    /** Positive training at @p index. */
    void increment(std::uint32_t index);

    /** Negative training at @p index. */
    void decrement(std::uint32_t index);

    /** Number of entries. */
    std::size_t entries() const { return weights_.size(); }

    /** Signed weight width in bits. */
    unsigned weight_bits() const { return weight_bits_; }

    /** Storage cost in bits. */
    std::uint64_t storage_bits() const
    {
        return static_cast<std::uint64_t>(weights_.size()) * weight_bits_;
    }

    /** Serialize every weight. */
    void save_state(SnapshotWriter &w) const { serialize(*this, w); }
    /** Inverse of save_state on a same-config instance. */
    void restore_state(SnapshotReader &r) { serialize(*this, r); }

  private:
    friend struct AuditAccess;

    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    std::vector<SignedSatCounter> weights_;
    unsigned weight_bits_;  // LINT_SNAPSHOT_OK: config
    unsigned index_bits_;   // LINT_SNAPSHOT_OK: config
};

}  // namespace moka

#endif  // MOKASIM_FILTER_PERCEPTRON_H
