/**
 * @file
 * Set-associative write-back cache with LRU, SRRIP or Random
 * replacement, MSHR-style in-flight merging, port contention, and
 * per-block prefetch metadata. The L1D instance additionally carries
 * the paper's PCB (Page-Cross Bit) per block and reports page-cross
 * prefetch usefulness through a listener, which is what drives MOKA
 * training.
 */
#ifndef MOKASIM_CACHE_CACHE_H
#define MOKASIM_CACHE_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

#include "cache/memory_level.h"
#include "common/hot_path.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"

namespace moka {

struct AuditAccess;
class SnapshotReader;
class SnapshotWriter;

/**
 * Replacement policy of one cache level. The paper evaluates LRU
 * everywhere (Table IV); SRRIP and Random serve the ablations
 * (bench/ablation_replacement) and baselines that differ.
 */
enum class ReplacementKind : std::uint8_t {
    kLru,    //!< least-recently-used (paper's Table IV)
    kSrrip,  //!< static re-reference interval prediction (2-bit)
    kRandom, //!< pseudo-random victim
};

/** Geometry and timing of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint32_t sets = 64;      //!< power of two
    std::uint32_t ways = 8;
    Cycle latency = 4;            //!< lookup + fill latency
    std::uint32_t mshr_entries = 8;
    bool track_pgc = false;       //!< maintain PCB bits (L1D only)
    ReplacementKind replacement = ReplacementKind::kLru;

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("name", s.name...);
        v("sets", s.sets...);
        v("ways", s.ways...);
        v("latency", s.latency...);
        v("mshr_entries", s.mshr_entries...);
        v("track_pgc", s.track_pgc...);
        v("replacement", s.replacement...);
    }
};

/**
 * Observer of L1D block lifetime events needed by a Page-Cross
 * Filter: first demand use of a PGC-prefetched block (positive
 * training through pUB) and evictions (negative training for unused
 * PCB blocks).
 */
class CacheListener
{
  public:
    virtual ~CacheListener() = default;

    /** A block with PCB set served its first demand access. */
    virtual void on_pgc_first_use(PhysAddr block_paddr) = 0;

    /**
     * A valid block was evicted.
     *
     * @param block_paddr block-aligned physical address
     * @param prefetched  block was filled by a prefetch
     * @param pgc         block's PCB was set
     * @param used        block served at least one demand access
     */
    virtual void on_eviction(PhysAddr block_paddr, bool prefetched,
                             bool pgc, bool used) = 0;
};

/** Aggregate statistics of one cache level. */
struct CacheStats
{
    AccessStats demand;          //!< loads, stores, instruction fetches
    AccessStats walk;            //!< page-table walker references
    std::uint64_t writebacks = 0;
    std::uint64_t prefetch_lookups = 0;  //!< prefetch requests observed
    PrefetchStats pf;            //!< prefetch effectiveness

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("demand", s.demand...);
        v("walk", s.walk...);
        v("writebacks", s.writebacks...);
        v("prefetch_lookups", s.prefetch_lookups...);
        v("pf", s.pf...);
    }

    /** Memberwise delta for measured-region snapshots. */
    CacheStats operator-(const CacheStats &o) const
    {
        return field_diff(*this, o);
    }
};

/**
 * One cache level; lower level wired at construction. `final` so
 * that call sites typed `Cache*` (the private-hierarchy members of
 * CoreComplex, the shared LLC) devirtualize: access() is the single
 * hottest function in the simulator (rule L12).
 */
class Cache final : public MemoryLevel
{
  public:
    /**
     * @param config geometry/timing
     * @param lower  next level (cache or DRAM); may be nullptr for
     *               tests, in which case misses complete locally
     */
    Cache(const CacheConfig &config, MemoryLevel *lower);

    /**
     * One request. @p paddr must lie below 128 GiB, the widest
     * physical memory a PageTable accepts, so that its block number
     * fits a 31-bit tag; a wider address aborts rather than alias.
     */
    SIM_HOT AccessResult access(PhysAddr paddr, AccessType type, Cycle now,
                                bool pgc_prefetch = false) override;

    /** Install an L1D lifetime listener (used by Page-Cross Filters). */
    void set_listener(CacheListener *listener) { listener_ = listener; }

    /** True when @p paddr's block is resident (no state change);
     *  the same 128 GiB bound as access(). */
    bool probe(PhysAddr paddr) const;

    /** Counters. */
    const CacheStats &stats() const { return stats_; }

    /** In-flight demand misses younger than @p now (ROB-pressure cue). */
    unsigned inflight_misses(Cycle now) const;

    /** Config echo. */
    const CacheConfig &config() const { return cfg_; }

    /** Serialize tags, MSHRs, port state, replacement and stats. */
    void save_state(SnapshotWriter &w) const { serialize(*this, w); }
    /** Inverse of save_state on a same-config instance. */
    void restore_state(SnapshotReader &r) { serialize(*this, r); }

  private:
    friend struct AuditAccess;

    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    // Structure-of-arrays block store. The lookup scan touches ONE
    // contiguous 32-bit array: a tag is the whole block number, which
    // access() and probe() require to be below kTagLimit (physical
    // addresses below 128 GiB), so bit 31 is free to hold the valid
    // bit. That turns the per-way "valid && tag ==" into a single
    // compare against tag|kValidTagBit. Flags pack into a byte;
    // fill cycles sit in a parallel array only the merge check reads,
    // as u32 offsets above fill_base_ (see fill_offset_).
    static constexpr std::uint32_t kValidTagBit = std::uint32_t{1} << 31;
    static constexpr Addr kTagLimit = kValidTagBit;
    static constexpr std::uint8_t kFlagDirty = 1u << 0;
    static constexpr std::uint8_t kFlagPrefetched = 1u << 1;
    static constexpr std::uint8_t kFlagPgc = 1u << 2;  //!< paper's PCB
    static constexpr std::uint8_t kFlagUsed = 1u << 3; //!< >=1 demand use
    static constexpr std::uint8_t kFlagMask =
        kFlagDirty | kFlagPrefetched | kFlagPgc | kFlagUsed;
    static constexpr std::uint32_t kNoWay = ~std::uint32_t{0};
    //! widest LRU set: ranks stay below 128, so touch() ages 8 at a time
    static constexpr std::uint32_t kMaxLruWays = 128;
    static constexpr std::uint8_t kMaxRrpv = 3;  //!< SRRIP's 2-bit rail
    //! a fill whose port cycle is this far past fill_base_ rebases
    static constexpr Cycle kRebaseSpan = Cycle{1} << 31;

    // A set is addressed by its row base, set * ways: the index of
    // its first way in the per-way arrays, computed once per access.
    std::size_t row_base(PhysAddr paddr) const;
    std::uint32_t tag_of(PhysAddr paddr) const;
    /**
     * First of the @p ways tag words at @p row whose bits under
     * @p mask equal @p key, or kNoWay: four ways per compare.
     */
    static SIM_INLINE std::uint32_t first_way(const std::uint32_t *row,
                                              std::uint32_t ways,
                                              std::uint32_t mask,
                                              std::uint32_t key);
    std::uint32_t pick_victim(std::size_t base, Cycle now);
    // access() is the hottest function in the simulator; GCC's LTO
    // build leaves these three out of line unless forced.
    SIM_INLINE std::uint32_t find(std::size_t base, std::uint32_t tag) const;
    SIM_INLINE void mark_used(std::size_t idx);
    /** A hit (@p fill false) or fill touched @p way of the set. */
    SIM_INLINE void touch(std::size_t base, std::uint32_t way, bool fill);
    /** The replacement victim of a set whose ways are all valid. */
    std::uint32_t victim(std::size_t base);
    /**
     * First set whose replacement row breaks its policy's invariant
     * (LRU ranks a permutation of [0, ways), SRRIP RRPVs at most
     * kMaxRrpv), or -1 for none.
     */
    std::int64_t first_inconsistent_set() const;
    /**
     * Move fill_base_ up to @p start, the port cycle of a fill
     * kRebaseSpan or more cycles past it: offsets of fills still due
     * after @p start are re-expressed above it, the rest become 0.
     */
    SIM_COLD void rebase_fills(Cycle start);

    CacheConfig cfg_;       // LINT_SNAPSHOT_OK: config
    MemoryLevel *lower_;    // LINT_SNAPSHOT_OK: collaborator, owned by machine
    // LINT_SNAPSHOT_OK: collaborator, re-wired by the machine builder
    CacheListener *listener_ = nullptr;
    std::vector<std::uint32_t> tags_;  //!< sets * ways; bit 31 = valid
    std::vector<std::uint8_t> flags_;  //!< kFlag* bits, parallel to tags_
    // Data arrival, parallel to tags_: fill_base_ + offset, where 0
    // means at or before fill_base_. A lookup completes at its port
    // cycle or later, and fill_base_ never passes next_port_free_, so
    // an offset of 0 never merges; rebase_fills keeps every other
    // offset below 2^32.
    std::vector<std::uint32_t> fill_offset_;
    Cycle fill_base_ = 0;
    std::vector<Cycle> inflight_;      //!< outstanding fill completions
    Cycle next_port_free_ = 0;
    // Replacement state, a row of cfg_.ways bytes per set, parallel
    // to tags_. kLru: recency ranks, 0 for the most recently touched
    // way and ways - 1 for the least, so each row is a permutation of
    // [0, ways). kSrrip: 2-bit re-reference prediction values
    // (Jaleel et al., ISCA 2010). kRandom: empty; rng_ draws victims.
    std::vector<std::uint8_t> repl_;
    Rng rng_{1};
    CacheStats stats_;
};

}  // namespace moka

#endif  // MOKASIM_CACHE_CACHE_H
