/**
 * @file
 * SPP: Signature Path Prefetcher (Kim et al., MICRO 2016), used as an
 * L2C prefetcher in the paper's Fig. 17 study. Operates on physical
 * addresses and never crosses physical page boundaries (the safety
 * restriction the paper discusses for PIPT caches). Reimplemented
 * from the paper.
 */
#ifndef MOKASIM_PREFETCH_SPP_H
#define MOKASIM_PREFETCH_SPP_H

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.h"

namespace moka {

/** SPP sizing and confidence knobs. */
struct SppConfig
{
    unsigned st_entries = 256;   //!< signature (page tracker) table
    unsigned pt_entries = 512;   //!< pattern table
    unsigned deltas_per_sig = 4; //!< delta slots per pattern entry
    double pf_threshold = 0.25;  //!< lookahead confidence floor
    unsigned max_depth = 8;      //!< lookahead depth bound
};

/** See file comment. */
class Spp : public Prefetcher
{
  public:
    explicit Spp(const SppConfig &config);

    void on_access(const PrefetchContext &ctx,
                   std::vector<PrefetchRequest> &out) override;

    const std::string &name() const override { return name_; }

    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    struct StEntry
    {
        Addr page_tag = 0;
        bool valid = false;
        std::int32_t last_offset = 0;
        std::uint16_t signature = 0;
        std::uint64_t lru = 0;
    };

    struct DeltaSlot
    {
        std::int32_t delta = 0;
        std::uint16_t count = 0;
    };

    struct PtEntry
    {
        std::vector<DeltaSlot> slots;
        std::uint16_t total = 0;
    };

    static std::uint16_t advance_sig(std::uint16_t sig, std::int32_t delta);

    SppConfig cfg_;  // LINT_SNAPSHOT_OK: config
    std::uint64_t st_mask_ = 0;  // LINT_SNAPSHOT_OK: config (rule L19)
    std::uint64_t pt_mask_ = 0;  // LINT_SNAPSHOT_OK: config (rule L19)
    std::vector<StEntry> st_;
    std::vector<PtEntry> pt_;
    std::uint64_t lru_stamp_ = 0;
    std::string name_ = "spp";  // LINT_SNAPSHOT_OK: constant identifier
};

}  // namespace moka

#endif  // MOKASIM_PREFETCH_SPP_H
