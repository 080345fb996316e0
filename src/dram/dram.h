/**
 * @file
 * DRAM model: channels, banks, open-row policy, and bandwidth
 * contention through per-bank and per-channel availability. Useless
 * page-cross prefetches consume real DRAM slots here, which is one of
 * the two costs the paper charges them with.
 */
#ifndef MOKASIM_DRAM_DRAM_H
#define MOKASIM_DRAM_DRAM_H

#include <cstdint>
#include <vector>

#include "cache/memory_level.h"
#include "common/stats.h"
#include "common/types.h"

namespace moka {

struct AuditAccess;
class SnapshotReader;
class SnapshotWriter;

/** DRAM geometry and timing (core-clock cycles). */
struct DramConfig
{
    unsigned channels = 1;      //!< independent channels
    unsigned banks = 16;        //!< banks per channel
    unsigned rows_bits = 16;    //!< row id width
    unsigned column_bits = 5;   //!< blocks per row per bank (2^n)
    Cycle row_hit_latency = 90;   //!< CAS-only access
    Cycle row_miss_latency = 180; //!< precharge+activate+CAS
    Cycle burst_cycles = 3;     //!< data-bus occupancy per 64B transfer

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("channels", s.channels...);
        v("banks", s.banks...);
        v("rows_bits", s.rows_bits...);
        v("column_bits", s.column_bits...);
        v("row_hit_latency", s.row_hit_latency...);
        v("row_miss_latency", s.row_miss_latency...);
        v("burst_cycles", s.burst_cycles...);
    }
};

/** Open-row DRAM with per-bank and per-channel availability. */
class Dram : public MemoryLevel
{
  public:
    explicit Dram(const DramConfig &config);

    /** Perform one 64B transfer; @p type only affects statistics. */
    AccessResult access(PhysAddr paddr, AccessType type, Cycle now,
                        bool pgc_prefetch = false) override;

    /** Total accesses served. */
    std::uint64_t accesses() const { return accesses_; }
    /** Row-buffer hits. */
    std::uint64_t row_hits() const { return row_hits_; }
    /** Accesses attributable to prefetch fills. */
    std::uint64_t prefetch_accesses() const { return prefetch_accesses_; }
    /** Accesses attributable to page walks. */
    std::uint64_t walk_accesses() const { return walk_accesses_; }

    /** Sentinel for a bank with no open row. */
    static constexpr std::uint64_t kNoOpenRow = ~std::uint64_t{0};

    /** Serialize open rows, availabilities and counters. */
    void save_state(SnapshotWriter &w) const { serialize(*this, w); }
    /** Inverse of save_state on a same-config instance. */
    void restore_state(SnapshotReader &r) { serialize(*this, r); }

  private:
    friend struct AuditAccess;

    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    struct Bank
    {
        std::uint64_t open_row = kNoOpenRow;
        Cycle next_free = 0;
    };

    DramConfig cfg_;  // LINT_SNAPSHOT_OK: config, rebuilt from MachineConfig
    // Address-slicing plan, precomputed at construction: the
    // channel/bank counts are powers of two, so the per-access
    // slicing is shifts and masks (rule L19).
    unsigned chan_bits_;   // LINT_SNAPSHOT_OK: config
    unsigned bank_bits_;   // LINT_SNAPSHOT_OK: config
    std::vector<Bank> banks_;               //!< channels*banks flat
    std::vector<Cycle> channel_next_free_;  //!< data-bus availability
    std::uint64_t accesses_ = 0;
    std::uint64_t row_hits_ = 0;
    std::uint64_t prefetch_accesses_ = 0;
    std::uint64_t walk_accesses_ = 0;
};

}  // namespace moka

#endif  // MOKASIM_DRAM_DRAM_H
