/**
 * @file
 * Feedback-directed prefetch throttling (Srinath et al., HPCA 2007
 * style), the aggressiveness-control family the paper discusses as
 * related work (§VI). Wraps any L1D prefetcher and scales how many of
 * its candidates are issued based on measured accuracy and lateness.
 *
 * This is orthogonal to Page-Cross Filters: FDP modulates *volume*
 * for all prefetches, a Page-Cross Filter classifies *individual*
 * page-cross requests. bench/ablation_throttle-style studies can
 * combine both.
 */
#ifndef MOKASIM_PREFETCH_THROTTLE_H
#define MOKASIM_PREFETCH_THROTTLE_H

#include <cstdint>

#include "prefetch/prefetcher.h"

namespace moka {

/** FDP thresholds and interval length. */
struct ThrottleConfig
{
    std::uint64_t interval_fills = 512; //!< fills per evaluation window
    double acc_high = 0.75;  //!< accuracy above this: ramp up
    double acc_low = 0.40;   //!< accuracy below this: ramp down
    double late_high = 0.30; //!< late fraction above this: ramp up
    unsigned levels = 4;     //!< aggressiveness levels (1..levels)
    unsigned initial_level = 2;
};

/**
 * Wraps an inner prefetcher; the aggressiveness level caps how many
 * candidates per trigger are forwarded (level 1 = 1 candidate, level
 * N = all). Feedback comes from the host cache's usefulness events,
 * forwarded by the owner via on_feedback().
 */
class ThrottledPrefetcher : public Prefetcher
{
  public:
    ThrottledPrefetcher(PrefetcherPtr inner, const ThrottleConfig &config);

    void on_access(const PrefetchContext &ctx,
                   std::vector<PrefetchRequest> &out) override;

    void on_fill(VirtAddr vaddr, Cycle now, bool was_prefetch) override;

    const std::string &name() const override { return name_; }

    /**
     * Outcome feedback for one resolved prefetch.
     *
     * @param useful the block served a demand access
     * @param late   the demand arrived while the fill was in flight
     */
    void on_feedback(bool useful, bool late);

    /** Current aggressiveness level (1..levels). */
    unsigned level() const { return level_; }

    /** Inner prefetcher (diagnostics). */
    const Prefetcher &inner() const { return *inner_; }

    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    void end_interval();

    PrefetcherPtr inner_;
    ThrottleConfig cfg_;  // LINT_SNAPSHOT_OK: config
    unsigned level_;
    std::uint64_t window_useful_ = 0;
    std::uint64_t window_useless_ = 0;
    std::uint64_t window_late_ = 0;
    std::uint64_t window_fills_ = 0;
    std::string name_;  // LINT_SNAPSHOT_OK: constant identifier
    // LINT_SNAPSHOT_OK: scratch, overwritten before every use
    std::vector<PrefetchRequest> scratch_;
};

}  // namespace moka

#endif  // MOKASIM_PREFETCH_THROTTLE_H
