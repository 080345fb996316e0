/**
 * @file
 * Classic per-IP stride prefetcher (reference-prediction-table
 * style). Not evaluated in the paper, but a standard baseline a
 * downstream user of the library will expect to find.
 */
#ifndef MOKASIM_PREFETCH_STRIDE_H
#define MOKASIM_PREFETCH_STRIDE_H

#include <vector>

#include "common/sat_counter.h"
#include "prefetch/prefetcher.h"

namespace moka {

/** Stride prefetcher sizing knobs. */
struct StridePrefetcherConfig
{
    unsigned entries = 64;     //!< IP table (direct mapped + tag)
    unsigned degree = 2;       //!< prefetches per confirmed access
    unsigned conf_threshold = 2; //!< 2-bit confidence to fire
};

/** See file comment. */
class StridePrefetcher : public Prefetcher
{
  public:
    explicit StridePrefetcher(const StridePrefetcherConfig &config);

    void on_access(const PrefetchContext &ctx,
                   std::vector<PrefetchRequest> &out) override;

    const std::string &name() const override { return name_; }

    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    struct Entry
    {
        std::uint16_t tag = 0;
        bool valid = false;
        Addr last_line = 0;
        std::int64_t stride = 0;
        UnsignedSatCounter conf{2};
    };

    StridePrefetcherConfig cfg_;  // LINT_SNAPSHOT_OK: config
    std::uint64_t table_mask_ = 0;  // LINT_SNAPSHOT_OK: config (rule L19)
    std::vector<Entry> table_;
    std::string name_ = "stride";  // LINT_SNAPSHOT_OK: constant identifier
};

}  // namespace moka

#endif  // MOKASIM_PREFETCH_STRIDE_H
