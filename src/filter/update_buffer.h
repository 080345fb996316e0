/**
 * @file
 * The MOKA update buffers (paper §III-B). The Virtual Update Buffer
 * (vUB) remembers recently *discarded* page-cross prefetches by
 * virtual address so a subsequent demand L1D miss on the same block
 * exposes a false negative (positive training). The Physical Update
 * Buffer (pUB) remembers *issued* page-cross prefetches by physical
 * address so L1D use/eviction events can reward or punish the
 * weights. Both store the hash indexes captured at prediction time
 * so exactly the contributing weights get updated.
 */
#ifndef MOKASIM_FILTER_UPDATE_BUFFER_H
#define MOKASIM_FILTER_UPDATE_BUFFER_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/hashing.h"
#include "common/hot_path.h"
#include "common/types.h"

namespace moka {

struct AuditAccess;
class SnapshotReader;
class SnapshotWriter;

/**
 * Decision context captured when the filter predicted, keyed by a
 * typed block address: @p AddrT is VirtAddr for vUB records and
 * PhysAddr for pUB records, so a record can never be looked up in the
 * wrong address space.
 */
template <class AddrT>
struct DecisionRecordT
{
    static constexpr std::size_t kMaxFeatures = 8;

    AddrT block{};  //!< block-aligned key in this record's space
    std::uint8_t num_features = 0;              //!< valid prefix length
    std::array<std::uint32_t, kMaxFeatures> indexes{};  //!< WT hash indexes
    std::uint8_t system_mask = 0;               //!< active system features

    template <class V, class... S>
    static constexpr void visit_fields(V &&v, S &...s)
    {
        v("block", s.block...);
        v("num_features", s.num_features...);
        v("indexes", s.indexes...);
        v("system_mask", s.system_mask...);
    }
};

/** vUB record: keyed by the virtual prefetch-target block. */
using VirtDecisionRecord = DecisionRecordT<VirtAddr>;

/** pUB record: keyed by the translated physical block. */
using PhysDecisionRecord = DecisionRecordT<PhysAddr>;

/**
 * Re-key a decision record across the translation seam: when a
 * permitted page-cross prefetch is actually issued, its vUB-style
 * pending record (virtual key) becomes a pUB record under the block's
 * translated physical address. The learned payload (hash indexes,
 * system mask) is space-agnostic and carries over unchanged.
 */
inline PhysDecisionRecord
rekey_to_physical(const VirtDecisionRecord &v, PhysAddr block)
{
    PhysDecisionRecord p;
    p.block = block;
    p.num_features = v.num_features;
    p.indexes = v.indexes;
    p.system_mask = v.system_mask;
    return p;
}

/**
 * FIFO associative buffer of DecisionRecordTs keyed by a typed block
 * address (@p AddrT = VirtAddr for the vUB, PhysAddr for the pUB).
 * Functionally a small CAM. Duplicate keys keep the newest record
 * (refreshed in place; FIFO age unchanged).
 *
 * Storage is flat and allocated once at construction (hot-path rule
 * L10: insert/take run on every page-cross decision and every L1D
 * demand miss, so the steady state must be allocation free):
 *
 *  - a ring of 2x capacity slots in FIFO order. take() only clears
 *    the slot's live flag; the stale slot is skipped lazily at the
 *    front and compacted in place when the ring fills, which bounds
 *    occupied slots at 2x capacity while keeping take() O(1);
 *  - an open-addressing hash table (linear probing, tombstones)
 *    mapping block -> ring slot, sized 4x capacity so the load
 *    factor stays below a half; tombstones are cleared by a rebuild
 *    once they outnumber capacity, amortized O(1) per take().
 */
template <class AddrT>
class UpdateBuffer
{
  public:
    /** The record type this buffer stores. */
    using Record = DecisionRecordT<AddrT>;

    explicit UpdateBuffer(std::size_t entries)
        : capacity_(entries), ring_(2 * entries)
    {
        SIM_REQUIRE(entries > 0, "UpdateBuffer capacity must be positive");
        SIM_REQUIRE(entries < (std::size_t{1} << 30),
                    "UpdateBuffer capacity is implausibly large");
        std::size_t table = 8;
        while (table < 4 * entries) {
            table *= 2;
        }
        table_.assign(table, kEmpty);
        tmask_ = static_cast<std::uint32_t>(table - 1);
    }

    /** Insert @p rec, evicting the oldest record when full. */
    SIM_HOT void insert(const Record &rec)
    {
        const std::uint32_t pos = find_slot(rec.block);
        if (pos != kNoSlot && table_[pos] < kTomb) {
            ring_[table_[pos]].rec = rec;  // refresh in place
            return;
        }
        purge_stale_front();
        while (live_ >= capacity_ && count_ > 0) {
            Slot &front = ring_[head_];
            if (front.live) {
                erase_key(front.rec.block);
                front.live = false;
                --live_;
                ++overflow_evictions_;
            } else {
                --stale_;
            }
            head_ = next(head_);
            --count_;
        }
        if (count_ == ring_.size()) {
            compact();  // stale slots mid-ring: squeeze them out
        }
        // head_ < size and count_ <= size, so one compare-subtract
        // wraps exactly like the modulo without the division
        // (rule L19).
        std::size_t tail_slot = head_ + count_;
        if (tail_slot >= ring_.size()) {
            tail_slot -= ring_.size();
        }
        const std::uint32_t tail = static_cast<std::uint32_t>(tail_slot);
        ring_[tail] = Slot{rec, next_seq_++, true};
        ++count_;
        ++live_;
        // Re-probe: eviction/compaction above may have rewritten the
        // table, so the position from the initial lookup is stale.
        table_[find_free(rec.block)] = tail;
    }

    /**
     * Find the record for @p block, copy it to @p out and remove it.
     * @return true on hit.
     */
    SIM_HOT bool take(AddrT block, Record &out)
    {
        const std::uint32_t pos = find_slot(block);
        if (pos == kNoSlot || table_[pos] >= kTomb) {
            return false;
        }
        Slot &slot = ring_[table_[pos]];
        out = slot.rec;
        slot.live = false;  // stale ring slot, skipped lazily
        --live_;
        ++stale_;
        table_[pos] = kTomb;
        if (++tombstones_ > capacity_) {
            rebuild_table();
        }
        return true;
    }

    /** Current occupancy. */
    std::size_t size() const { return live_; }

    /** Capacity. */
    std::size_t capacity() const { return capacity_; }

    /** Records dropped because the buffer was full (FIFO evictions). */
    std::uint64_t overflow_evictions() const { return overflow_evictions_; }

    /**
     * Storage cost in bits: paper charges 36 bits of address/tag plus
     * 12 bits of hash-index bookkeeping per entry.
     */
    std::uint64_t storage_bits() const
    {
        return static_cast<std::uint64_t>(capacity_) * (36 + 12);
    }

    /** True when @p ok holds for the record of every ring slot. */
    template <class Pred>
    bool all_records(Pred ok) const
    {
        return std::all_of(ring_.begin(), ring_.end(),
                           [&ok](const Slot &s) { return ok(s.rec); });
    }

    /**
     * Serialize the ring, hash table and bookkeeping verbatim — the
     * probe layout depends on insertion order, so rebuilding it on
     * restore would diverge from the straight-through run.
     */
    void save_state(SnapshotWriter &w) const { serialize(*this, w); }
    /** Inverse of save_state on a same-config instance. */
    void restore_state(SnapshotReader &r) { serialize(*this, r); }

  private:
    friend struct AuditAccess;

    /** The one field list of save_state and restore_state. */
    template <class Self, class IO>
    static void serialize(Self &self, IO &io);

    //! table_ sentinel: slot never used
    static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
    //! table_ sentinel: slot erased (probing continues past it)
    static constexpr std::uint32_t kTomb = 0xFFFFFFFEu;
    //! find_slot result: key absent and no reusable slot seen
    static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

    struct Slot
    {
        Record rec;
        std::uint64_t seq = 0;  //!< insertion that created the slot
        bool live = false;      //!< false: awaiting lazy FIFO cleanup
    };

    std::size_t next(std::size_t i) const
    {
        return i + 1 == ring_.size() ? 0 : i + 1;
    }

    /**
     * Probe for @p block. Returns the table position holding its
     * ring index, or the first reusable (tombstone, else empty)
     * position for an insert, or kNoSlot when absent with no
     * reusable slot on the probe path (cannot happen below the
     * enforced load factor, but handled anyway).
     */
    std::uint32_t find_slot(AddrT block) const
    {
        std::uint32_t pos = static_cast<std::uint32_t>(mix64(block)) & tmask_;
        std::uint32_t reuse = kNoSlot;
        for (std::uint32_t n = 0; n <= tmask_; ++n) {
            const std::uint32_t entry = table_[pos];
            if (entry == kEmpty) {
                return reuse != kNoSlot ? reuse : pos;
            }
            if (entry == kTomb) {
                if (reuse == kNoSlot) {
                    reuse = pos;
                }
            } else if (ring_[entry].rec.block == block) {
                return pos;
            }
            pos = (pos + 1) & tmask_;
        }
        return reuse;
    }

    /** First insertable position for @p block (key known absent). */
    std::uint32_t find_free(AddrT block) const
    {
        std::uint32_t pos = static_cast<std::uint32_t>(mix64(block)) & tmask_;
        while (table_[pos] < kTomb) {
            pos = (pos + 1) & tmask_;
        }
        return pos;
    }

    /** Tombstone the table entry pointing at the live slot of @p block. */
    void erase_key(AddrT block)
    {
        std::uint32_t pos = static_cast<std::uint32_t>(mix64(block)) & tmask_;
        while (table_[pos] != kEmpty) {
            if (table_[pos] != kTomb &&
                ring_[table_[pos]].rec.block == block) {
                table_[pos] = kTomb;
                ++tombstones_;
                return;
            }
            pos = (pos + 1) & tmask_;
        }
    }

    void purge_stale_front()
    {
        while (count_ > 0 && !ring_[head_].live) {
            head_ = next(head_);
            --count_;
            --stale_;
        }
    }

    /** Drop stale slots, pack live ones toward head_ in order, re-key. */
    void compact()
    {
        // The occupied span can wrap past the ring end, so packing
        // toward ring position 0 would overwrite the not-yet-read
        // wrapped tail and smear those live slots across the ring.
        // Writing in the same ring order the read cursor walks,
        // starting at head_, keeps the write cursor at or behind the
        // read cursor, so every slot is read before it can be
        // reused as a destination.
        std::size_t write = head_;
        std::size_t kept = 0;
        for (std::size_t i = 0, read = head_; i < count_;
             ++i, read = next(read)) {
            if (ring_[read].live) {
                ring_[write] = ring_[read];
                write = next(write);
                ++kept;
            }
        }
        count_ = kept;
        stale_ = 0;
        rebuild_table();
    }

    /** Re-derive table_ from the live ring slots (clears tombstones). */
    void rebuild_table()
    {
        table_.assign(table_.size(), kEmpty);
        tombstones_ = 0;
        for (std::size_t i = 0, pos = head_; i < count_;
             ++i, pos = next(pos)) {
            if (ring_[pos].live) {
                table_[find_free(ring_[pos].rec.block)] =
                    static_cast<std::uint32_t>(pos);
            }
        }
    }

    std::size_t capacity_;  // LINT_SNAPSHOT_OK: config
    //! FIFO ring of live + stale slots; occupied span starts at head_
    std::vector<Slot> ring_;
    std::vector<std::uint32_t> table_;  //!< block -> ring index
    std::uint32_t tmask_ = 0;  // LINT_SNAPSHOT_OK: config, derived
    std::size_t head_ = 0;
    std::size_t count_ = 0;      //!< occupied ring slots (live + stale)
    std::size_t live_ = 0;
    std::uint64_t stale_ = 0;    //!< stale slots currently in the ring
    std::size_t tombstones_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t overflow_evictions_ = 0;
};

/** The Virtual Update Buffer: discarded candidates, virtual keys. */
using VirtUpdateBuffer = UpdateBuffer<VirtAddr>;

/** The Physical Update Buffer: issued candidates, physical keys. */
using PhysUpdateBuffer = UpdateBuffer<PhysAddr>;

// serialize is defined (and the two space instantiations emitted) in
// update_buffer.cc, keeping the snapshot machinery out of this
// hot-path header.
extern template class UpdateBuffer<VirtAddr>;
extern template class UpdateBuffer<PhysAddr>;

}  // namespace moka

#endif  // MOKASIM_FILTER_UPDATE_BUFFER_H
