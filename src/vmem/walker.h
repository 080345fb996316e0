/**
 * @file
 * Hardware page-table walker with split page-structure caches (PSCs).
 * Walks are sequences of dependent memory references issued through
 * the cache hierarchy (L2C entry point), so a speculative walk for a
 * useless page-cross prefetch costs up to 4 real memory accesses —
 * the paper's headline risk.
 */
#ifndef MOKASIM_VMEM_WALKER_H
#define MOKASIM_VMEM_WALKER_H

#include <array>
#include <cstdint>
#include <vector>

#include "cache/memory_level.h"
#include "common/types.h"
#include "vmem/page_table.h"

namespace moka {

struct AuditAccess;
class SnapshotReader;
class SnapshotWriter;

/** Walker + PSC configuration (Table IV: split PSC, 1-cycle). */
struct WalkerConfig
{
    unsigned psc_pml5_entries = 1;
    unsigned psc_pml4_entries = 2;
    unsigned psc_pdpte_entries = 8;
    unsigned psc_pde_entries = 32;
    Cycle psc_latency = 1;
    unsigned concurrent_walks = 4;  //!< walker MSHR-equivalents

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("psc_pml5_entries", s.psc_pml5_entries...);
        v("psc_pml4_entries", s.psc_pml4_entries...);
        v("psc_pdpte_entries", s.psc_pdpte_entries...);
        v("psc_pde_entries", s.psc_pde_entries...);
        v("psc_latency", s.psc_latency...);
        v("concurrent_walks", s.concurrent_walks...);
    }
};

/** A small fully-associative LRU cache over VA prefixes (one PSC). */
class StructureCache
{
  public:
    explicit StructureCache(unsigned entries) : data_(entries) {}

    /** True when @p prefix is cached (updates recency). */
    bool lookup(Addr prefix);

    /** Install @p prefix, evicting LRU if needed. */
    void fill(Addr prefix);

    /** Lookup counters. */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t lookups() const { return lookups_; }

    /** Serialize cached prefixes, the LRU clock and counters. */
    void save_state(SnapshotWriter &w) const { serialize(*this, w); }
    /** Inverse of save_state on a same-config instance. */
    void restore_state(SnapshotReader &r) { serialize(*this, r); }

  private:
    friend struct AuditAccess;

    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    struct Entry
    {
        Addr prefix = 0;
        std::uint64_t lru = 0;
    };

    //! one slot per entry, sized once; the first size_ are live, so
    //! fill() never grows or reallocates (rule L10)
    std::vector<Entry> data_;
    std::size_t size_ = 0;
    std::uint64_t lru_stamp_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t lookups_ = 0;
};

/** The hardware page-table walker. */
class PageWalker
{
  public:
    /** Result of a completed walk. */
    struct WalkResult
    {
        Cycle done = 0;         //!< translation available
        PhysAddr page_base{};   //!< physical page base
        bool large = false;     //!< 2MB mapping
        unsigned mem_refs = 0;  //!< memory accesses the walk issued
    };

    /**
     * @param config walker/PSC geometry
     * @param table  the process page table
     * @param memory entry point for PTE reads (L2C in the paper)
     */
    PageWalker(const WalkerConfig &config, PageTable *table,
               MemoryLevel *memory);

    /**
     * Perform a full walk for @p vaddr starting at @p now.
     *
     * @param speculative true for walks triggered by page-cross
     *                    prefetches (counted separately)
     */
    WalkResult walk(VirtAddr vaddr, Cycle now, bool speculative);

    /** Demand walks performed. */
    std::uint64_t demand_walks() const { return demand_walks_; }
    /** Speculative (prefetch-triggered) walks performed. */
    std::uint64_t spec_walks() const { return spec_walks_; }
    /** Total PTE memory references issued. */
    std::uint64_t total_mem_refs() const { return total_mem_refs_; }

    /** Serialize PSCs, walker-slot availability and counters. */
    void save_state(SnapshotWriter &w) const { serialize(*this, w); }
    /** Inverse of save_state on a same-config instance. */
    void restore_state(SnapshotReader &r) { serialize(*this, r); }

  private:
    friend struct AuditAccess;

    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    WalkerConfig cfg_;     // LINT_SNAPSHOT_OK: config
    PageTable *table_;     // LINT_SNAPSHOT_OK: collaborator, owned by core
    MemoryLevel *memory_;  // LINT_SNAPSHOT_OK: collaborator, owned by core
    StructureCache psc_pml5_;
    StructureCache psc_pml4_;
    StructureCache psc_pdpte_;
    StructureCache psc_pde_;
    std::vector<Cycle> walker_free_;  //!< per-slot availability
    std::uint64_t demand_walks_ = 0;
    std::uint64_t spec_walks_ = 0;
    std::uint64_t total_mem_refs_ = 0;
};

}  // namespace moka

#endif  // MOKASIM_VMEM_WALKER_H
