/**
 * @file
 * IPCP: Instruction Pointer Classifier-based spatial Prefetching
 * (Pakalapati & Panda, ISCA 2020). Each IP is classified as constant
 * stride (CS), complex stride (CPLX) or part of a global stream (GS),
 * with next-line (NL) as the fallback. Reimplemented from the paper.
 */
#ifndef MOKASIM_PREFETCH_IPCP_H
#define MOKASIM_PREFETCH_IPCP_H

#include <cstdint>
#include <vector>

#include "common/sat_counter.h"
#include "prefetch/prefetcher.h"

namespace moka {

/** IPCP sizing knobs. */
struct IpcpConfig
{
    unsigned ip_entries = 64;     //!< IP table (direct mapped + tag)
    unsigned cspt_entries = 128;  //!< complex stride prediction table
    unsigned rst_entries = 8;     //!< region stream table
    unsigned region_lines = 32;   //!< lines per stream region (2KB)
    unsigned dense_threshold = 24; //!< touched lines to call a region dense
    unsigned cs_degree = 4;
    unsigned cplx_degree = 3;
    unsigned gs_degree = 8;
};

/** See file comment. */
class Ipcp : public Prefetcher
{
  public:
    explicit Ipcp(const IpcpConfig &config);

    void on_access(const PrefetchContext &ctx,
                   std::vector<PrefetchRequest> &out) override;

    const std::string &name() const override { return name_; }

    void save_state(SnapshotWriter &w) const override { serialize(*this, w); }
    void restore_state(SnapshotReader &r) override { serialize(*this, r); }

  private:
    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    struct IpEntry
    {
        std::uint16_t tag = 0;
        bool valid = false;
        Addr last_line = 0;
        std::int64_t stride = 0;
        UnsignedSatCounter conf{2};
        std::uint16_t signature = 0;
        bool stream = false;  //!< classified GS
    };

    struct CsptEntry
    {
        std::int64_t stride = 0;
        UnsignedSatCounter conf{2};
    };

    struct Region
    {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t touched = 0;  //!< bitmap of touched lines
        unsigned count = 0;
        bool dense = false;
        std::uint64_t lru = 0;
    };

    Region *find_region(Addr line, bool allocate);

    IpcpConfig cfg_;  // LINT_SNAPSHOT_OK: config
    // Index masks and the region shift (rule L19). ip_mask_ is 0 when
    // ip_entries is not a power of two (ISO Storage's 96) and the
    // lookup falls back to %.
    std::uint64_t region_mask_ = 0;  // LINT_SNAPSHOT_OK: config
    unsigned region_shift_ = 0;      // LINT_SNAPSHOT_OK: config
    std::uint64_t ip_mask_ = 0;      // LINT_SNAPSHOT_OK: config
    std::uint64_t cspt_mask_ = 0;    // LINT_SNAPSHOT_OK: config
    std::vector<IpEntry> ips_;
    std::vector<CsptEntry> cspt_;
    std::vector<Region> regions_;
    std::uint64_t lru_stamp_ = 0;
    std::string name_ = "ipcp";  // LINT_SNAPSHOT_OK: constant identifier
};

}  // namespace moka

#endif  // MOKASIM_PREFETCH_IPCP_H
