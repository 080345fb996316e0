/**
 * @file
 * BOP: Best-Offset Prefetching (Michaud, HPCA 2016). A recent-request
 * table scores candidate offsets round by round; the winning offset
 * drives degree-1 prefetching until the next learning phase completes.
 * Reimplemented from the paper.
 */
#ifndef MOKASIM_PREFETCH_BOP_H
#define MOKASIM_PREFETCH_BOP_H

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.h"

namespace moka {

/** BOP sizing and scoring knobs (paper defaults). */
struct BopConfig
{
    unsigned rr_entries = 256;  //!< recent-request table (direct mapped)
    int score_max = 31;         //!< early-exit score
    int round_max = 100;        //!< rounds per learning phase
    int bad_score = 10;         //!< below this, prefetching turns off
    std::vector<std::int64_t> offsets = {
        1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25,
        27, 30, 32, 36, 40, 45, 48, 50, 54, 60, 64, -1, -2, -3, -4, -8};
};

/** See file comment. */
class Bop : public Prefetcher
{
  public:
    explicit Bop(const BopConfig &config);

    void on_access(const PrefetchContext &ctx,
                   std::vector<PrefetchRequest> &out) override;

    void on_fill(VirtAddr vaddr, Cycle now, bool was_prefetch) override;

    const std::string &name() const override { return name_; }

    /** Currently selected offset (0 when prefetching is off). */
    std::int64_t best_offset() const { return active_ ? best_ : 0; }

    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    std::size_t rr_index(Addr line) const;
    bool rr_contains(Addr line) const;
    void rr_insert(Addr line);
    void end_phase();

    BopConfig cfg_;  // LINT_SNAPSHOT_OK: config
    std::uint64_t rr_mask_ = 0;  // LINT_SNAPSHOT_OK: config (rule L19)
    std::vector<Addr> rr_;       //!< line addresses (0 = empty)
    std::vector<int> scores_;
    unsigned test_index_ = 0;
    int round_ = 0;
    std::int64_t best_ = 1;
    bool active_ = true;
    std::string name_ = "bop";  // LINT_SNAPSHOT_OK: constant identifier
};

}  // namespace moka

#endif  // MOKASIM_PREFETCH_BOP_H
