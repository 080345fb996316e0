/**
 * @file
 * AuditAccess: the one befriended window into private simulator
 * state. The auditors use it to *inspect* internals without widening
 * any public API, and tests/test_audit.cc uses its corrupt_* helpers
 * to *inject* the exact metadata drift the auditors must detect.
 * Nothing outside src/audit/ and the tests should include this.
 */
#ifndef MOKASIM_AUDIT_ACCESS_H
#define MOKASIM_AUDIT_ACCESS_H

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "common/sat_counter.h"
#include "common/types.h"
#include "dram/dram.h"
#include "filter/adaptive_threshold.h"
#include "filter/moka.h"
#include "filter/system_features.h"
#include "filter/update_buffer.h"
#include "sim/machine.h"
#include "vmem/page_table.h"
#include "vmem/tlb.h"
#include "vmem/walker.h"

namespace moka {

/** See file comment. */
struct AuditAccess
{
    // ----------------------------------------------------------------
    // Cache
    // ----------------------------------------------------------------

    /** Value snapshot of one cache block (private Cache::Block). */
    struct BlockView
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        bool prefetched = false;
        bool pgc = false;
        bool used = false;
    };

    static BlockView
    cache_block(const Cache &c, std::uint32_t set, std::uint32_t way)
    {
        const std::size_t i =
            static_cast<std::size_t>(set) * c.cfg_.ways + way;
        const std::uint8_t f = c.flags_[i];
        return {Addr{c.tags_[i] & ~Cache::kValidTagBit},
                (c.tags_[i] & Cache::kValidTagBit) != 0,
                (f & Cache::kFlagDirty) != 0,
                (f & Cache::kFlagPrefetched) != 0,
                (f & Cache::kFlagPgc) != 0,
                (f & Cache::kFlagUsed) != 0};
    }

    static std::size_t
    cache_inflight_count(const Cache &c)
    {
        return c.inflight_.size();
    }

    /** Cycle the fill offsets count from; never past the port clock. */
    static Cycle cache_fill_base(const Cache &c) { return c.fill_base_; }

    /** First cycle the cache's port is free. */
    static Cycle cache_port_free(const Cache &c) { return c.next_port_free_; }

    /**
     * First set whose replacement row breaks its policy's invariant
     * (LRU ranks a permutation of the ways, SRRIP RRPVs at most 3),
     * or -1; always -1 under Random, which keeps no row.
     */
    static std::int64_t
    cache_inconsistent_set(const Cache &c)
    {
        return c.first_inconsistent_set();
    }

    /** Corruption: flip the PCB of block (set, way). */
    static void
    corrupt_cache_pcb(Cache &c, std::uint32_t set, std::uint32_t way,
                      bool pgc)
    {
        const std::size_t i =
            static_cast<std::size_t>(set) * c.cfg_.ways + way;
        if (pgc) {
            c.flags_[i] |= Cache::kFlagPgc;
        } else {
            c.flags_[i] &= static_cast<std::uint8_t>(~Cache::kFlagPgc);
        }
    }

    /** Corruption: move the fill base to @p base, bypassing rebase. */
    static void
    corrupt_cache_fill_base(Cache &c, Cycle base)
    {
        c.fill_base_ = base;
    }

    /** Corruption: clone way 0's tag into way 1 of @p set. */
    static void
    corrupt_cache_duplicate_tag(Cache &c, std::uint32_t set)
    {
        const std::size_t base =
            static_cast<std::size_t>(set) * c.cfg_.ways;
        c.tags_[base] |= Cache::kValidTagBit;
        c.tags_[base + 1] = c.tags_[base];
        c.flags_[base + 1] = c.flags_[base];
        c.fill_offset_[base + 1] = c.fill_offset_[base];
    }

    /**
     * Corruption: give way 1 of @p set way 0's LRU rank, so the row
     * is no longer a permutation. False when the cache is not LRU.
     */
    static bool
    corrupt_cache_lru_rank(Cache &c, std::uint32_t set)
    {
        if (c.cfg_.replacement != ReplacementKind::kLru || c.cfg_.ways < 2) {
            return false;
        }
        std::uint8_t *row =
            &c.repl_[static_cast<std::size_t>(set) * c.cfg_.ways];
        row[1] = row[0];
        return true;
    }

    /**
     * Corruption: raise the RRPV of way @p way of @p set to
     * @p rrpv, bypassing the 2-bit rail. False when the cache is not
     * SRRIP.
     */
    static bool
    corrupt_cache_rrpv(Cache &c, std::uint32_t set, std::uint32_t way,
                       std::uint8_t rrpv)
    {
        if (c.cfg_.replacement != ReplacementKind::kSrrip) {
            return false;
        }
        c.repl_[static_cast<std::size_t>(set) * c.cfg_.ways + way] = rrpv;
        return true;
    }

    /** Locate the first valid block; false when the cache is empty. */
    static bool
    find_valid_block(const Cache &c, std::uint32_t &set,
                     std::uint32_t &way)
    {
        for (std::uint32_t s = 0; s < c.cfg_.sets; ++s) {
            for (std::uint32_t w = 0; w < c.cfg_.ways; ++w) {
                if (cache_block(c, s, w).valid) {
                    set = s;
                    way = w;
                    return true;
                }
            }
        }
        return false;
    }

    // ----------------------------------------------------------------
    // TLB
    // ----------------------------------------------------------------

    /** Value snapshot of one TLB entry (private Tlb::Entry). */
    struct TlbEntryView
    {
        Addr vpn = 0;
        Addr page_base = 0;
        bool valid = false;
        std::uint64_t lru = 0;
    };

    static std::size_t tlb_small_slots(const Tlb &t)
    {
        return t.small_.vpn.size();
    }
    static std::size_t tlb_large_slots(const Tlb &t)
    {
        return t.large_.vpn.size();
    }
    static std::uint64_t tlb_lru_stamp(const Tlb &t) { return t.lru_stamp_; }

    static TlbEntryView
    tlb_entry(const Tlb::EntryArray &arr, std::size_t slot)
    {
        return {arr.vpn[slot] & ~Tlb::kValidVpnBit, arr.page_base[slot],
                (arr.vpn[slot] & Tlb::kValidVpnBit) != 0, arr.lru[slot]};
    }

    static TlbEntryView
    tlb_small_entry(const Tlb &t, std::size_t slot)
    {
        return tlb_entry(t.small_, slot);
    }

    static TlbEntryView
    tlb_large_entry(const Tlb &t, std::size_t slot)
    {
        return tlb_entry(t.large_, slot);
    }

    /**
     * Corruption: shift the page base of the first valid small-page
     * entry by @p delta_bytes. Returns false when the TLB is empty.
     */
    static bool
    corrupt_tlb_page_base(Tlb &t, Addr delta_bytes)
    {
        for (std::size_t i = 0; i < t.small_.vpn.size(); ++i) {
            if ((t.small_.vpn[i] & Tlb::kValidVpnBit) != 0) {
                t.small_.page_base[i] += delta_bytes;
                return true;
            }
        }
        return false;
    }

    // ----------------------------------------------------------------
    // Page table
    // ----------------------------------------------------------------

    static const FlatAddrMap &
    page_map(const PageTable &pt)
    {
        return pt.page_map_;
    }

    static const FlatAddrMap &
    large_page_map(const PageTable &pt)
    {
        return pt.large_page_map_;
    }

    /** Table-frame maps, PT level first. */
    static const std::array<FlatAddrMap, 4> &
    tables(const PageTable &pt)
    {
        return pt.tables_;
    }

    /** Byte address of a page-map value (a 4KB frame number). */
    static Addr frame_base(FlatAddrMap::Value frame)
    {
        return PageTable::frame_base(frame);
    }

    static const FrameBitmap &
    used_frames(const PageTable &pt)
    {
        return pt.used_frames_;
    }

    static const FrameBitmap &
    used_large_frames(const PageTable &pt)
    {
        return pt.used_large_frames_;
    }

    static Addr phys_bytes(const PageTable &pt) { return pt.cfg_.phys_bytes; }

    // ----------------------------------------------------------------
    // Walker / page-structure caches
    // ----------------------------------------------------------------

    struct PscView
    {
        std::vector<std::pair<Addr, std::uint64_t>> entries;  //!< prefix, lru
        unsigned capacity = 0;
        std::uint64_t lru_stamp = 0;
        std::uint64_t hits = 0;
        std::uint64_t lookups = 0;
    };

    static PscView
    psc(const StructureCache &s)
    {
        PscView v;
        v.capacity = static_cast<unsigned>(s.data_.size());
        v.lru_stamp = s.lru_stamp_;
        v.hits = s.hits_;
        v.lookups = s.lookups_;
        for (std::size_t i = 0; i < s.size_; ++i) {
            v.entries.emplace_back(s.data_[i].prefix, s.data_[i].lru);
        }
        return v;
    }

    static const StructureCache &walker_pde(const PageWalker &w) { return w.psc_pde_; }
    static const StructureCache &walker_pdpte(const PageWalker &w) { return w.psc_pdpte_; }
    static const StructureCache &walker_pml4(const PageWalker &w) { return w.psc_pml4_; }
    static const StructureCache &walker_pml5(const PageWalker &w) { return w.psc_pml5_; }
    static std::size_t walker_slots(const PageWalker &w) { return w.walker_free_.size(); }
    static unsigned walker_configured_slots(const PageWalker &w)
    {
        return w.cfg_.concurrent_walks;
    }

    /** Corruption: duplicate the PSC's first entry (PDE PSC). */
    static void
    corrupt_psc_duplicate(PageWalker &w)
    {
        StructureCache &s = w.psc_pde_;
        if (s.size_ > 0 && s.size_ < s.data_.size()) {
            s.data_[s.size_++] = s.data_.front();
        }
    }

    // ----------------------------------------------------------------
    // Update buffers
    // ----------------------------------------------------------------

    template <class AddrT>
    static std::size_t ub_fifo_size(const UpdateBuffer<AddrT> &b)
    {
        return b.count_;
    }

    template <class AddrT>
    static std::uint64_t ub_stale(const UpdateBuffer<AddrT> &b)
    {
        return b.stale_;
    }

    /** Occupied FIFO ring slots (live and stale) as (key, seq). */
    template <class AddrT>
    static std::vector<std::pair<AddrT, std::uint64_t>>
    ub_fifo(const UpdateBuffer<AddrT> &b)
    {
        std::vector<std::pair<AddrT, std::uint64_t>> out;
        out.reserve(b.count_);
        for (std::size_t i = 0, pos = b.head_; i < b.count_;
             ++i, pos = b.next(pos)) {
            out.emplace_back(b.ring_[pos].rec.block, b.ring_[pos].seq);
        }
        return out;
    }

    /** Live records with their slot sequence numbers. */
    template <class AddrT>
    static std::vector<std::pair<DecisionRecordT<AddrT>, std::uint64_t>>
    ub_records(const UpdateBuffer<AddrT> &b)
    {
        std::vector<std::pair<DecisionRecordT<AddrT>, std::uint64_t>> out;
        out.reserve(b.live_);
        // Ring order is insertion order, so seq is already ascending;
        // the sort stays as a belt against future layout changes.
        for (std::size_t i = 0, pos = b.head_; i < b.count_;
             ++i, pos = b.next(pos)) {
            if (b.ring_[pos].live) {
                out.emplace_back(b.ring_[pos].rec, b.ring_[pos].seq);
            }
        }
        std::sort(out.begin(), out.end(),
                  [](const auto &a, const auto &b2) {
                      return a.second < b2.second;
                  });
        return out;
    }

    /** Corruption: append a phantom FIFO slot nothing indexed. */
    template <class AddrT>
    static void
    corrupt_ub_phantom_fifo_slot(UpdateBuffer<AddrT> &b, AddrT key)
    {
        if (b.count_ == b.ring_.size()) {
            b.compact();
        }
        const std::size_t tail = (b.head_ + b.count_) % b.ring_.size();
        b.ring_[tail].rec = DecisionRecordT<AddrT>{};
        b.ring_[tail].rec.block = key;
        b.ring_[tail].seq = ~std::uint64_t{0};
        b.ring_[tail].live = false;
        // count_ grows with neither live_ nor stale_: the FIFO
        // bookkeeping invariant is now broken, as intended.
        ++b.count_;
    }

    /** Corruption: blow the feature count of one live record. */
    template <class AddrT>
    static bool
    corrupt_ub_feature_count(UpdateBuffer<AddrT> &b)
    {
        for (std::size_t i = 0, pos = b.head_; i < b.count_;
             ++i, pos = b.next(pos)) {
            if (b.ring_[pos].live) {
                b.ring_[pos].rec.num_features = static_cast<std::uint8_t>(
                    DecisionRecordT<AddrT>::kMaxFeatures + 1);
                return true;
            }
        }
        return false;
    }

    // ----------------------------------------------------------------
    // Perceptron / thresholds / filter
    // ----------------------------------------------------------------

    /** Corruption: force T_a to @p value, bypassing clamp. */
    static void
    corrupt_threshold(AdaptiveThreshold &t, int value)
    {
        t.ta_ = value;
    }

    static std::size_t
    filter_num_tables(const MokaFilter &f)
    {
        return f.slots_.size();
    }

    static std::size_t
    filter_table_entries(const MokaFilter &f)
    {
        return std::size_t{1} << f.index_bits_;
    }

    static int
    filter_weight(const MokaFilter &f, std::size_t table,
                  std::uint32_t index)
    {
        return f.weight_at(table, index);
    }

    static std::pair<int, int>
    filter_weight_rails(const MokaFilter &f)
    {
        return {f.wmin_, f.wmax_};
    }

    /** Corruption: write @p raw into arena weight, bypassing rails. */
    static void
    corrupt_filter_weight(MokaFilter &f, std::size_t table,
                          std::uint32_t index, std::int16_t raw)
    {
        f.weights_[(table << f.index_bits_) + index] = raw;
    }

    static const std::vector<SystemFeature> &
    filter_system(const MokaFilter &f)
    {
        return f.system_;
    }

    static const SignedSatCounter &
    system_weight(const SystemFeature &sf)
    {
        return sf.weight_;
    }

    static const VirtUpdateBuffer &filter_vub(const MokaFilter &f) { return f.vub_; }
    static const PhysUpdateBuffer &filter_pub(const MokaFilter &f) { return f.pub_; }
    static PhysUpdateBuffer &filter_pub_mut(MokaFilter &f) { return f.pub_; }
    static VirtUpdateBuffer &filter_vub_mut(MokaFilter &f) { return f.vub_; }

    static const AdaptiveThreshold &
    filter_thresholds(const MokaFilter &f)
    {
        return f.thresholds_;
    }

    static AdaptiveThreshold &
    filter_thresholds_mut(MokaFilter &f)
    {
        return f.thresholds_;
    }

    static bool filter_pending_valid(const MokaFilter &f) { return f.pending_valid_; }
    static const VirtDecisionRecord &filter_pending(const MokaFilter &f)
    {
        return f.pending_;
    }

    // ----------------------------------------------------------------
    // DRAM
    // ----------------------------------------------------------------

    struct BankView
    {
        std::uint64_t open_row = 0;
        Cycle next_free = 0;
    };

    static std::size_t dram_bank_count(const Dram &d) { return d.banks_.size(); }
    static std::size_t dram_channel_count(const Dram &d)
    {
        return d.channel_next_free_.size();
    }
    static const DramConfig &dram_config(const Dram &d) { return d.cfg_; }

    static BankView
    dram_bank(const Dram &d, std::size_t i)
    {
        const Dram::Bank &b = d.banks_[i];
        return {b.open_row, b.next_free};
    }

    /** Corruption: open a row id outside the addressable range. */
    static void
    corrupt_dram_open_row(Dram &d, std::size_t bank, std::uint64_t row)
    {
        d.banks_[bank].open_row = row;
    }

    // ----------------------------------------------------------------
    // Machine plumbing (end-to-end corruption tests)
    // ----------------------------------------------------------------

    //! CoreComplex's private interval window (record-field tests)
    using CoreWindow = CoreComplex::Window;

    static Cache &core_l1d(CoreComplex &core) { return *core.l1d_; }
    static Tlb &core_dtlb(CoreComplex &core) { return *core.dtlb_; }
    static PageCrossFilter *core_filter(CoreComplex &core)
    {
        return core.filter_.get();
    }
};

}  // namespace moka

#endif  // MOKASIM_AUDIT_ACCESS_H
