/**
 * @file
 * Set-associative TLB with separate small-page (4KB) and large-page
 * (2MB) arrays. Demand lookups and prefetch probes are counted
 * separately so that speculative page-cross traffic never perturbs
 * the demand MPKI/miss-rate statistics the paper reports — while its
 * fills still pollute (or warm) the arrays.
 */
#ifndef MOKASIM_VMEM_TLB_H
#define MOKASIM_VMEM_TLB_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace moka {

struct AuditAccess;
class SnapshotReader;
class SnapshotWriter;

/** Geometry/timing of a TLB level. */
struct TlbConfig
{
    std::string name = "tlb";
    std::uint32_t sets = 16;        //!< small-page array sets (pow2)
    std::uint32_t ways = 4;
    std::uint32_t large_sets = 4;   //!< large-page array sets (pow2)
    std::uint32_t large_ways = 4;
    Cycle latency = 1;

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("name", s.name...);
        v("sets", s.sets...);
        v("ways", s.ways...);
        v("large_sets", s.large_sets...);
        v("large_ways", s.large_ways...);
        v("latency", s.latency...);
    }
};

/** One TLB level (dTLB, iTLB or sTLB). */
class Tlb
{
  public:
    /** Lookup outcome. */
    struct Result
    {
        bool hit = false;
        PhysAddr page_base{};  //!< physical base of the enclosing page
        bool large = false;
        Cycle done = 0;        //!< lookup completion cycle
    };

    explicit Tlb(const TlbConfig &config);

    /**
     * Translate lookup — one of the three legal bridges between the
     * virtual and physical address spaces (see ARCHITECTURE.md).
     *
     * @param vaddr  virtual address
     * @param now    arrival cycle
     * @param demand true for demand accesses (counted in MPKI);
     *               false for prefetch probes (counted separately)
     */
    Result lookup(VirtAddr vaddr, Cycle now, bool demand);

    /**
     * Install a translation.
     *
     * @param vaddr     any address inside the page
     * @param page_base physical base of the page
     * @param large     2MB entry
     * @param from_prefetch fill caused by a page-cross prefetch
     */
    void fill(VirtAddr vaddr, PhysAddr page_base, bool large,
              bool from_prefetch);

    /** Demand access/miss counters. */
    const AccessStats &demand_stats() const { return demand_; }
    /** Prefetch-probe access/miss counters. */
    const AccessStats &probe_stats() const { return probe_; }
    /** Fills triggered by page-cross prefetches. */
    std::uint64_t prefetch_fills() const { return prefetch_fills_; }

    /** Config echo. */
    const TlbConfig &config() const { return cfg_; }

    /** Serialize both entry arrays, the LRU clock and counters. */
    void save_state(SnapshotWriter &w) const { serialize(*this, w); }
    /** Inverse of save_state on a same-config instance. */
    void restore_state(SnapshotReader &r) { serialize(*this, r); }

  private:
    friend struct AuditAccess;

    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    // Structure-of-arrays entry store, mirroring the cache layout:
    // the lookup scan reads only the vpn array, whose bit 63 carries
    // the valid flag (VPNs are at most 52 bits), so each way costs a
    // single compare against vpn|kValidVpnBit. Page bases and LRU
    // stamps sit in parallel arrays touched only on hit/install.
    static constexpr Addr kValidVpnBit = Addr{1} << 63;
    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    struct EntryArray
    {
        std::vector<Addr> vpn;        //!< bit 63 = valid
        std::vector<Addr> page_base;  //!< parallel to vpn
        std::vector<std::uint64_t> lru;

        explicit EntryArray(std::size_t slots)
            : vpn(slots, 0), page_base(slots, 0), lru(slots, 0)
        {
        }
    };

    std::size_t find(const EntryArray &arr, std::uint32_t sets,
                     std::uint32_t ways, Addr vpn) const;
    void install(EntryArray &arr, std::uint32_t sets,
                 std::uint32_t ways, Addr vpn, Addr page_base);

    TlbConfig cfg_;  // LINT_SNAPSHOT_OK: config
    EntryArray small_;
    EntryArray large_;
    std::uint64_t lru_stamp_ = 0;
    AccessStats demand_;
    AccessStats probe_;
    std::uint64_t prefetch_fills_ = 0;
};

}  // namespace moka

#endif  // MOKASIM_VMEM_TLB_H
