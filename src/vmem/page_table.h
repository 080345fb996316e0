/**
 * @file
 * Lazy 5-level radix page table with a randomized physical frame
 * allocator. Randomized allocation destroys virtual->physical
 * contiguity, which is why patterns easy to prefetch in virtual space
 * are invisible in physical space — the premise behind VIPT L1D
 * prefetching (paper §II-A).
 */
#ifndef MOKASIM_VMEM_PAGE_TABLE_H
#define MOKASIM_VMEM_PAGE_TABLE_H

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/flat_map.h"
#include "common/rng.h"
#include "common/types.h"

namespace moka {

struct AuditAccess;
class SnapshotReader;
class SnapshotWriter;

/** Virtual-memory configuration for one address space. */
struct VmemConfig
{
    //! physical memory size, at most kMaxPhysBytes
    Addr phys_bytes = Addr{4} << 30;
    double large_page_fraction = 0.0;  //!< chance a 2MB VA region is
                                       //!< backed by a 2MB page
    std::uint64_t seed = 1;            //!< allocator randomization

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("phys_bytes", s.phys_bytes...);
        v("large_page_fraction", s.large_page_fraction...);
        v("seed", s.seed...);
    }
};

/** Result of an address translation. */
struct Translation
{
    PhysAddr paddr{};   //!< translated physical byte address
    bool large = false; //!< backed by a 2MB page
};

/**
 * Per-process page table. Mappings and intermediate table frames are
 * allocated on first touch, emulating a lazy OS; walk_addresses()
 * exposes the physical PTE addresses so the hardware walker can issue
 * real memory references against the cache hierarchy.
 */
class PageTable
{
  public:
    /**
     * Widest physical memory a table accepts (128 GiB): every block
     * number then fits a cache's 31-bit tag (cache/cache.h), and every
     * 4KB frame number the 32-bit values of the page maps.
     */
    static constexpr Addr kMaxPhysBytes = Addr{1} << 37;

    /** Most entries the page map reserves. */
    static constexpr std::size_t kPageMapCap =
        FlatAddrMap::kMaxReserveEntries;
    /**
     * Most entries each table map and the large-page map reserve. A
     * map's entries never outnumber the pages mapped, but a workload
     * with sparse pages touches many 2MB regions: 640 for the widest
     * tile kernel, one leaf table (and at most one large page) each.
     */
    static constexpr std::size_t kTableMapCap = 1024;

    /**
     * @param page_bound pages the workload can touch
     *        (Workload::page_bound): the page map reserves
     *        min(page_bound, kPageMapCap) entries, the other maps
     *        min(page_bound, kTableMapCap); 0 (unknown) reserves the
     *        caps. The large-page map reserves none when
     *        config.large_page_fraction is 0 or below, which maps no
     *        large page. A map grows only when the workload maps more pages
     *        than its bound or spans more than kTableMapCap 2MB
     *        regions.
     * @pre config.phys_bytes <= kMaxPhysBytes (aborts otherwise).
     */
    explicit PageTable(const VmemConfig &config,
                       std::size_t page_bound = 0);

    /**
     * Translate @p vaddr, allocating the mapping on demand — the
     * authoritative VA->PA bridge (see ARCHITECTURE.md).
     */
    Translation translate(VirtAddr vaddr);

    /**
     * Physical addresses of the page-table entries a full walk reads,
     * outermost first (PML5E, PML4E, PDPTE, PDE[, PTE]).
     *
     * @param vaddr faulting virtual address
     * @param out   filled with up to 5 entry addresses
     * @return number of levels to read (4 for 2MB mappings, 5 for 4KB)
     */
    unsigned walk_addresses(VirtAddr vaddr, std::array<PhysAddr, 5> &out);

    /** Number of 4KB data pages mapped so far. */
    std::size_t mapped_pages() const { return page_map_.size(); }

    /** Pages the workload declared it can touch (0: unknown). */
    std::size_t page_bound() const { return page_bound_; }

    /** True if the 2MB region containing @p vaddr uses a large page. */
    bool is_large_region(VirtAddr vaddr) const;

    /** Serialize mappings, table frames, frame sets and the RNG. */
    void save_state(SnapshotWriter &w) const { serialize(*this, w); }
    /** Inverse of save_state on a same-config instance. */
    void restore_state(SnapshotReader &r) { serialize(*this, r); }

  private:
    friend struct AuditAccess;

    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    Addr alloc_frame();        //!< unique random 4KB frame
    Addr alloc_large_frame();  //!< unique random 2MB-aligned frame
    Addr table_frame(unsigned level, Addr prefix);

    // The page maps hold 4KB frame numbers; these convert at the
    // map's edge (a 2MB frame is stored as its first 4KB frame).
    static FlatAddrMap::Value frame_number(Addr frame)
    {
        return static_cast<FlatAddrMap::Value>(frame >> kPageBits);
    }
    static Addr frame_base(FlatAddrMap::Value frame)
    {
        return Addr{frame} << kPageBits;
    }

    VmemConfig cfg_;  // LINT_SNAPSHOT_OK: config
    // LINT_SNAPSHOT_OK: derived from the workload, not saved
    std::size_t page_bound_;
    Rng rng_;
    Addr root_;  //!< physical base of the PML5 table
    //! table frame numbers keyed by (level, VA prefix)
    std::array<FlatAddrMap, 4> tables_;
    FlatAddrMap page_map_;        //!< VPN -> frame number
    FlatAddrMap large_page_map_;  //!< LVPN -> frame number
    FrameBitmap used_frames_;           //!< 4KB frame ids
    FrameBitmap used_large_frames_;     //!< 2MB frame ids
};

}  // namespace moka

#endif  // MOKASIM_VMEM_PAGE_TABLE_H
