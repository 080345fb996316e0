/**
 * @file
 * Berti: accurate local-delta L1D prefetcher (Navarro-Torres et al.,
 * MICRO 2022). Per-IP shadow history establishes which local deltas
 * would have been *timely*, and only high-coverage timely deltas are
 * used for prefetching. Reimplemented from the paper's description.
 */
#ifndef MOKASIM_PREFETCH_BERTI_H
#define MOKASIM_PREFETCH_BERTI_H

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.h"

namespace moka {

/** Berti sizing knobs. */
struct BertiConfig
{
    unsigned ip_entries = 64;        //!< tracked IPs (fully assoc, LRU)
    unsigned history_per_ip = 16;    //!< shadow history depth
    unsigned deltas_per_ip = 16;     //!< candidate deltas tracked per IP
    std::int64_t max_delta = 63;     //!< |delta| bound in blocks
    Cycle timely_latency = 80;       //!< assumed fill latency for
                                     //!< timeliness classification
    unsigned window_accesses = 128;  //!< per-IP selection window
    double coverage_threshold = 0.30; //!< timely-coverage to select
    unsigned max_degree = 4;         //!< deltas issued per access
};

/** See file comment. */
class Berti : public Prefetcher
{
  public:
    explicit Berti(const BertiConfig &config);

    void on_access(const PrefetchContext &ctx,
                   std::vector<PrefetchRequest> &out) override;

    const std::string &name() const override { return name_; }

    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    struct HistoryItem
    {
        Addr line = 0;
        Cycle cycle = 0;
    };

    struct DeltaCounter
    {
        std::int64_t delta = 0;
        std::uint16_t occurrences = 0;
        std::uint16_t timely = 0;
    };

    /**
     * Per-IP counts and cursors. Each entry's history ring, candidate
     * deltas and selection live in the arenas below, at the entry's
     * index times the field's capacity: sized once at construction,
     * so training never grows or reallocates anything.
     */
    struct IpEntry
    {
        unsigned history_head = 0;
        std::uint32_t delta_count = 0;     //!< live candidate deltas
        std::uint32_t selected_count = 0;  //!< deltas issued per access
        unsigned window_count = 0;
    };

    //! delta_slot_ value of a delta no candidate holds
    static constexpr std::int8_t kNoSlot = -1;

    std::size_t lookup_ip(Addr pc);
    void train(std::size_t ip, Addr line, Cycle now);
    void select_deltas(std::size_t ip);
    /** Entry @p ip's delta_slot_ row, indexed by delta. */
    std::int8_t *slot_row(std::size_t ip)
    {
        return delta_slot_.data() + ip * slot_width_ + cfg_.max_delta;
    }

    BertiConfig cfg_;  // LINT_SNAPSHOT_OK: config
    std::vector<IpEntry> ips_;
    //! parallel to ips_: hashed-PC tag per entry
    std::vector<Addr> ip_tags_;
    //! parallel to ips_: entry holds live training state
    std::vector<std::uint8_t> ip_valid_;
    //! parallel to ips_: LRU stamp per entry
    std::vector<std::uint64_t> ip_lru_;
    //! history_per_ip ring slots per entry
    std::vector<HistoryItem> history_;
    //! deltas_per_ip candidates per entry, as three parallel arrays
    //! (value / occurrences / timely) so the per-access match scan in
    //! train() touches one contiguous int64 array
    std::vector<std::int64_t> delta_vals_;
    std::vector<std::uint16_t> delta_occ_;
    std::vector<std::uint16_t> delta_timely_;
    //! 2 * max_delta + 1: one delta_slot_ row
    std::size_t slot_width_;  // LINT_SNAPSHOT_OK: config
    //! the candidate slot of each delta in [-max_delta, max_delta] per
    //! entry, kNoSlot when no candidate holds it, so that train()
    //! finds a delta's slot in one load
    // LINT_SNAPSHOT_OK: derived from delta_vals_, rebuilt on restore
    std::vector<std::int8_t> delta_slot_;
    //! max_degree selected deltas per entry, with their timely counts
    //! (the requests' metadata export)
    std::vector<std::int64_t> selected_;
    std::vector<std::uint16_t> selected_timely_;
    //! select_deltas sort scratch, deltas_per_ip long
    // LINT_SNAPSHOT_OK: scratch, overwritten before every use
    std::vector<DeltaCounter> sort_scratch_;
    std::uint64_t lru_stamp_ = 0;
    std::string name_ = "berti";  // LINT_SNAPSHOT_OK: constant identifier
};

}  // namespace moka

#endif  // MOKASIM_PREFETCH_BERTI_H
